// Feedback compression for the W->C link (paper §VII-2, the Adacomp
// direction): the error feedbacks F_n are b*d floats per worker per
// iteration, and since they are gradients w.r.t. generated pixels they
// tolerate lossy encodings. Compression is applied at the serialization
// boundary, so the Table IV / Figure 2 traffic the SimNetwork records
// shrinks by exactly the wire savings.
//
// Wire format: 1 codec tag byte, then a codec-specific payload.
//   kNone         raw floats               (8B count + 4n bytes)
//   kQuantizeInt8 symmetric int8 quant     (8B count + 4B scale + n bytes)
//   kTopK         magnitude top-k sparsify (8B n + 8B k + k*(4B idx + 4B val))
// decompress() dispatches on the tag, so a stream is self-describing
// and a receiver needs no out-of-band codec agreement.
#pragma once

#include <cstdint>
#include <vector>

#include "common/serialize.hpp"

namespace mdgan::dist {

enum class CompressionKind : std::uint8_t {
  kNone = 0,
  kQuantizeInt8 = 1,
  kTopK = 2,
};

const char* to_string(CompressionKind kind);

struct CompressionConfig {
  CompressionKind kind = CompressionKind::kNone;
  // Fraction of entries kept by kTopK (clamped to (0, 1]; at least one
  // entry is always kept). Ignored by the other codecs.
  float top_k_fraction = 0.1f;
};

// Encodes `values` into `out` (appended after whatever the caller
// already framed, e.g. a batch id).
void compress(const std::vector<float>& values, const CompressionConfig& cfg,
              ByteBuffer& out);

// Decodes one compress() record from `in`. Top-k records decode to the
// full-length vector with the dropped entries restored as zeros.
std::vector<float> decompress(ByteBuffer& in);

}  // namespace mdgan::dist
