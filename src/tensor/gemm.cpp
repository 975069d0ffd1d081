#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

#include "obs/sink.hpp"

namespace mdgan {

// Kernel variants instantiated from gemm_kernel.inc (one TU per ISA).
namespace gemm_generic {
void gemm_f32(const GemmArgs<float>&);
void gemm_f64(const GemmArgs<double>&);
}  // namespace gemm_generic
namespace gemm_avx2 {
void gemm_f32(const GemmArgs<float>&);
void gemm_f64(const GemmArgs<double>&);
}  // namespace gemm_avx2
namespace gemm_avx512 {
void gemm_f32(const GemmArgs<float>&);
void gemm_f64(const GemmArgs<double>&);
}  // namespace gemm_avx512

namespace {

enum class Isa { kGeneric, kAvx2, kAvx512 };

Isa detect_isa() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Isa::kAvx2;
  }
#endif
  return Isa::kGeneric;
}

Isa active_isa() {
  static const Isa isa = detect_isa();
  return isa;
}

// Packing scratch is per-thread so concurrent gemms (cluster workers
// each training their own discriminator) never contend, and reused
// across calls so steady-state products allocate nothing. It stays put
// for a whole product because a parallel_for caller runs no other
// job's chunks while it waits (common/thread_pool.hpp).
template <typename T>
struct PackScratch {
  std::vector<T> a, b;
};

template <typename T>
PackScratch<T>& scratch() {
  thread_local PackScratch<T> s;
  return s;
}

// Handles m/n/k == 0 here, in the baseline TU, so the ISA kernels can
// assume real work. Returns true if the call is fully handled.
template <typename T>
bool handle_degenerate(bool accumulate, std::size_t m, std::size_t n,
                       std::size_t k, T* c, std::size_t ldc,
                       const GemmTileHook* hook) {
  if (m == 0 || n == 0) return true;
  if (k != 0) return false;
  // C = op(A)op(B) over an empty inner dim is all zeros.
  if (!accumulate) {
    for (std::size_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, T(0));
  }
  if (hook && hook->fn) hook->fn(hook->ctx, 0, m, 0, n);
  return true;
}

template <typename T>
GemmArgs<T> make_args(bool trans_a, bool trans_b, std::size_t m,
                      std::size_t n, std::size_t k, const T* a,
                      std::size_t lda, const T* b, std::size_t ldb,
                      bool accumulate, T* c, std::size_t ldc,
                      const GemmTileHook* hook) {
  GemmArgs<T> g;
  g.trans_a = trans_a;
  g.trans_b = trans_b;
  g.accumulate = accumulate;
  g.m = m;
  g.n = n;
  g.k = k;
  g.a = a;
  g.lda = lda;
  g.b = b;
  g.ldb = ldb;
  g.c = c;
  g.ldc = ldc;
  g.hook = hook;
  // Size the packing scratch here (baseline TU) so the ISA kernels never
  // run std::vector code; (m + kMaxMR) covers round_up(m, MR) for every
  // variant's MR, likewise for NR. Grow-only: shrinking and regrowing
  // would value-initialize the regrown tail on every call (forward /
  // dW / dX products alternate shapes within one training step).
  auto& s = scratch<T>();
  const std::size_t a_need = (m + kMaxMR) * k;
  const std::size_t b_need = (n + kMaxNR) * k;
  if (s.a.size() < a_need) s.a.resize(a_need);
  if (s.b.size() < b_need) s.b.resize(b_need);
  g.a_pack = s.a.data();
  g.b_pack = s.b.data();
  return g;
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, const float* a, std::size_t lda, const float* b,
           std::size_t ldb, bool accumulate, float* c, std::size_t ldc,
           const GemmTileHook* hook) {
  if (handle_degenerate(accumulate, m, n, k, c, ldc, hook)) return;
  obs::Span span(obs::global_tracer(), "gemm_f32", obs::Cat::kCompute,
                 /*node=*/-1);
  const GemmArgs<float> g = make_args(trans_a, trans_b, m, n, k, a, lda, b,
                                      ldb, accumulate, c, ldc, hook);
  switch (active_isa()) {
    case Isa::kAvx512:
      gemm_avx512::gemm_f32(g);
      break;
    case Isa::kAvx2:
      gemm_avx2::gemm_f32(g);
      break;
    default:
      gemm_generic::gemm_f32(g);
  }
}

void dgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, const double* a, std::size_t lda, const double* b,
           std::size_t ldb, bool accumulate, double* c, std::size_t ldc,
           const GemmTileHook* hook) {
  if (handle_degenerate(accumulate, m, n, k, c, ldc, hook)) return;
  obs::Span span(obs::global_tracer(), "gemm_f64", obs::Cat::kCompute,
                 /*node=*/-1);
  const GemmArgs<double> g = make_args(trans_a, trans_b, m, n, k, a, lda, b,
                                       ldb, accumulate, c, ldc, hook);
  switch (active_isa()) {
    case Isa::kAvx512:
      gemm_avx512::gemm_f64(g);
      break;
    case Isa::kAvx2:
      gemm_avx2::gemm_f64(g);
      break;
    default:
      gemm_generic::gemm_f64(g);
  }
}

const char* gemm_isa() {
  switch (active_isa()) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    default:
      return "generic";
  }
}

}  // namespace mdgan
