// Micro benchmarks of the kernels the experiments stand on: matmul, the
// im2col-based conv, the MLP generator/discriminator forward+backward,
// the per-iteration worker feedback, the LeakyReLU activation, the Adam
// step, swap serialization, feedback compression, the per-message wire
// path of both transports (SimNetwork mailbox, TCP framing, and a real
// loopback socket round trip), and the derangement draw of the swap
// protocol. These quantify where a global iteration's time goes.
//
// Self-contained harness (no google-benchmark): each bench reports
// ns/iter, GFLOP/s where the kernel has a defined flop count, and heap
// bytes/calls allocated per iteration (via the global allocation
// counters in common/alloc_tracker.hpp).
//
// Flags:
//   --tiny         shrink the measurement budget (CI smoke mode)
//   --json[=path]  also emit machine-readable results
//                  (default path: BENCH_micro_ops.json)
//   --filter=str   only run benches whose name contains `str`
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/cli.hpp"
#include "common/serialize.hpp"
#include "common/thread_pool.hpp"
#include "dist/compression.hpp"
#include "dist/frame.hpp"
#include "dist/sim_network.hpp"
#include "dist/tcp_network.hpp"
#include "gan/arch.hpp"
#include "gan/trainer.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "obs/sink.hpp"
#include "opt/adam.hpp"
#include "tensor/tensor_ops.hpp"

using namespace mdgan;

namespace {

struct BenchResult {
  std::string name;
  double ns_per_iter = 0;
  double gflops = 0;  // 0 when the bench has no defined flop count
  double alloc_bytes_per_iter = 0;
  double alloc_count_per_iter = 0;
  std::uint64_t iters = 0;
};

class Harness {
 public:
  Harness(double min_time_s, std::string filter)
      : min_time_s_(min_time_s), filter_(std::move(filter)) {}

  // Whether --filter selects the bench `name`; a bench whose fixtures
  // open sockets checks it before building them.
  bool wants(const std::string& name) const {
    return filter_.empty() || name.find(filter_) != std::string::npos;
  }

  // Runs `fn` repeatedly until the measurement budget is filled and
  // records timing + allocation stats. `flops` is the flop count of one
  // iteration (0 if undefined).
  void run(const std::string& name, double flops,
           const std::function<void()>& fn) {
    if (!wants(name)) return;
    fn();  // warm-up: first-touch allocations, lazy pool construction
    std::uint64_t iters = 1;
    for (;;) {
      const AllocStats a0 = alloc_stats();
      const auto t0 = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < iters; ++i) fn();
      const auto t1 = std::chrono::steady_clock::now();
      const AllocStats da = alloc_stats() - a0;
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      if (secs >= min_time_s_ || iters >= (1ull << 30)) {
        BenchResult r;
        r.name = name;
        r.iters = iters;
        r.ns_per_iter = secs * 1e9 / static_cast<double>(iters);
        r.gflops = flops > 0 && secs > 0
                       ? flops * static_cast<double>(iters) / secs / 1e9
                       : 0.0;
        r.alloc_bytes_per_iter =
            static_cast<double>(da.bytes) / static_cast<double>(iters);
        r.alloc_count_per_iter =
            static_cast<double>(da.count) / static_cast<double>(iters);
        results_.push_back(r);
        std::printf("%-34s %12.0f ns %9.2f GFLOP/s %12.0f B/iter %8.1f allocs\n",
                    r.name.c_str(), r.ns_per_iter, r.gflops,
                    r.alloc_bytes_per_iter, r.alloc_count_per_iter);
        std::fflush(stdout);
        return;
      }
      // Re-run with enough iterations to fill the budget (x2 headroom).
      const double want = iters * (min_time_s_ / (secs > 1e-9 ? secs : 1e-9));
      iters = static_cast<std::uint64_t>(want * 2) + 1;
    }
  }

  const std::vector<BenchResult>& results() const { return results_; }

  void write_json(const std::string& path, bool tiny) const {
    std::ofstream os(path);
    os << "{\n  \"bench\": \"micro_ops\",\n";
    os << "  \"tiny\": " << (tiny ? "true" : "false") << ",\n";
    os << "  \"gemm_isa\": \"" << gemm_isa() << "\",\n";
    os << "  \"threads\": " << ThreadPool::global().size() << ",\n";
    os << "  \"results\": [\n";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const auto& r = results_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "    {\"name\": \"%s\", \"ns_per_iter\": %.1f, "
                    "\"gflops\": %.3f, \"alloc_bytes_per_iter\": %.1f, "
                    "\"alloc_count_per_iter\": %.2f, \"iters\": %llu}%s\n",
                    r.name.c_str(), r.ns_per_iter, r.gflops,
                    r.alloc_bytes_per_iter, r.alloc_count_per_iter,
                    static_cast<unsigned long long>(r.iters),
                    i + 1 < results_.size() ? "," : "");
      os << buf;
    }
    os << "  ]\n}\n";
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  double min_time_s_;
  std::string filter_;
  std::vector<BenchResult> results_;
};

void bench_matmul_square(Harness& h) {
  for (std::size_t n : {std::size_t{64}, std::size_t{128}, std::size_t{256}}) {
    Rng rng(1);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    h.run("BM_MatmulSquare/" + std::to_string(n),
          2.0 * static_cast<double>(n) * n * n, [&] {
            Tensor c = matmul(a, b);
            volatile float sink = c[0];
            (void)sink;
          });
  }
}

void bench_matmul_gan_shaped(Harness& h) {
  // The dominant matmul of the MLP discriminator: (b, 784) x (784, 512).
  for (std::size_t b : {std::size_t{10}, std::size_t{100}}) {
    Rng rng(2);
    Tensor x = Tensor::randn({b, 784}, rng);
    Tensor w = Tensor::randn({784, 512}, rng);
    h.run("BM_MatmulGanShaped/" + std::to_string(b),
          2.0 * static_cast<double>(b) * 784 * 512, [&] {
            Tensor y = matmul(x, w);
            volatile float sink = y[0];
            (void)sink;
          });
  }
}

void bench_conv2d_forward(Harness& h) {
  for (std::size_t b : {std::size_t{10}, std::size_t{50}}) {
    Rng rng(3);
    nn::Conv2D conv(3, 16, 3, 3, 2, 1);
    nn::he_normal(conv.weight(), 27, rng);
    Tensor x = Tensor::randn({b, 3, 32, 32}, rng);
    // 32x32, k3 s2 p1 -> 16x16 output; gemm is (b*256, 27) x (27, 16).
    h.run("BM_Conv2DForward/" + std::to_string(b),
          2.0 * static_cast<double>(b) * 256 * 27 * 16, [&] {
            const Tensor& y = conv.forward(x, true);
            volatile float sink = y[0];
            (void)sink;
          });
  }
}

void bench_im2col(Harness& h) {
  Rng rng(4);
  Tensor x = Tensor::randn({10, 3, 32, 32}, rng);
  std::size_t oh, ow;
  h.run("BM_Im2Col", 0, [&] {
    Tensor cols = im2col(x, 3, 3, 2, 1, oh, ow);
    volatile float sink = cols[0];
    (void)sink;
  });
}

void bench_mlp_generator_forward(Harness& h) {
  for (std::size_t b : {std::size_t{10}, std::size_t{100}}) {
    Rng rng(5);
    auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
    auto g = gan::build_generator(arch, rng);
    Tensor z = Tensor::randn({b, arch.latent_dim}, rng);
    h.run("BM_MlpGeneratorForward/" + std::to_string(b), 0, [&] {
      const Tensor& x = g.forward(z, true);
      volatile float sink = x[0];
      (void)sink;
    });
  }
}

// Batch sizes of the discriminator rows: the end-to-end workloads' 8,
// 16 and 32 (tcp-async-small, tcp-sync-swap, sim-w8-compute), the tiny
// tests' 10 and the paper's 100.
constexpr std::size_t kDiscBatches[] = {8, 10, 16, 32, 100};

void bench_worker_feedback(Harness& h) {
  // Algorithm 1 lines 9-10: the per-iteration feedback computation of
  // one worker (D forward + backward to the input).
  for (std::size_t b : kDiscBatches) {
    Rng rng(6);
    auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
    auto d = gan::build_discriminator(arch, rng);
    Tensor x = Tensor::randn({b, arch.image_dim()}, rng);
    std::vector<int> labels(b, 3);
    h.run("BM_WorkerFeedback/" + std::to_string(b), 0, [&] {
      const Tensor& f = gan::generator_feedback(d, x, &labels, false);
      volatile float sink = f[0];
      (void)sink;
    });
  }
}

void bench_disc_learning_step(Harness& h) {
  for (std::size_t b : kDiscBatches) {
    Rng rng(7);
    auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
    auto d = gan::build_discriminator(arch, rng);
    opt::Adam adam(d.params(), d.grads(), {});
    Tensor x_real = Tensor::randn({b, arch.image_dim()}, rng);
    Tensor x_fake = Tensor::randn({b, arch.image_dim()}, rng);
    std::vector<int> y(b, 1);
    h.run("BM_DiscLearningStep/" + std::to_string(b), 0, [&] {
      auto stats =
          gan::disc_learning_step(d, adam, x_real, y, x_fake, y, true);
      volatile float sink = stats.loss_real;
      (void)sink;
    });
  }
}

void bench_leaky_relu(Harness& h) {
  // The discriminator's activation at its b x 512 hidden width: one
  // forward plus one backward, as in every discriminator step.
  for (std::size_t b : {std::size_t{8}, std::size_t{32}}) {
    Rng rng(14);
    nn::LeakyReLU act(0.2f);
    Tensor x = Tensor::randn({b, 512}, rng);
    Tensor g = Tensor::randn({b, 512}, rng);
    h.run("BM_LeakyReLU/" + std::to_string(b), 0, [&] {
      act.forward(x, true);
      const Tensor& d = act.backward(g);
      volatile float sink = d[0];
      (void)sink;
    });
  }
}

void bench_swap_serialization(Harness& h) {
  // One swap message: flatten + serialize + parse + assign of a full
  // MLP discriminator (|theta| = 670,219 floats).
  Rng rng(8);
  auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  auto d = gan::build_discriminator(arch, rng);
  h.run("BM_SwapSerialization", 0, [&] {
    auto params = d.flatten_parameters();
    ByteBuffer buf;
    buf.write_floats(params.data(), params.size());
    auto back = buf.read_floats();
    d.assign_parameters(back);
    volatile std::size_t sink = buf.size();
    (void)sink;
  });
}

void bench_feedback_compression(Harness& h) {
  // W->C wire path: compress+decompress one batch of feedback floats
  // (keeps the serialization/compression codecs off the iteration
  // critical path — the ROADMAP micro-ops item).
  Rng rng(11);
  std::vector<float> values(100 * 784);
  rng.fill_normal(values.data(), values.size(), 0.f, 1.f);
  for (auto kind : {dist::CompressionKind::kQuantizeInt8,
                    dist::CompressionKind::kTopK}) {
    dist::CompressionConfig cfg;
    cfg.kind = kind;
    h.run(std::string("BM_FeedbackCompression/") + dist::to_string(kind), 0,
          [&] {
            ByteBuffer buf;
            dist::compress(values, cfg, buf);
            auto back = dist::decompress(buf);
            volatile float sink = back[0];
            (void)sink;
          });
  }
}

void bench_wire_path(Harness& h) {
  // The per-message wire path beyond the codecs: what one
  // Transport::send + receive_tagged of a feedback-sized payload costs
  // on each backend. Sizes are one batch of (b, 784) floats for b = 8
  // (the tiny-test shape) and b = 100 (the paper's).
  for (std::size_t floats :
       {std::size_t{8} * 784, std::size_t{100} * 784}) {
    std::vector<float> values(floats);
    Rng rng(12);
    rng.fill_normal(values.data(), values.size(), 0.f, 1.f);
    const std::string suffix = "/" + std::to_string(floats);

    // In-process backend: serialize + mailbox enqueue + ordered pop.
    dist::SimNetwork sim(2);
    h.run("BM_SimNetSendRecv" + suffix, 0, [&] {
      ByteBuffer buf;
      buf.write_floats(values.data(), values.size());
      sim.send(1, dist::kServerId, "fb", std::move(buf));
      auto m = sim.receive_tagged(dist::kServerId, "fb");
      volatile std::size_t sink = m->payload.size();
      (void)sink;
    });

    // TCP framing layer alone (no kernel in the loop): encode + header
    // decode + body decode of one frame.
    h.run("BM_FrameEncodeDecode" + suffix, 0, [&] {
      ByteBuffer buf;
      buf.write_floats(values.data(), values.size());
      const auto wire = dist::encode_frame(1, dist::kServerId, "fb", buf);
      const auto body_len = dist::decode_frame_header(wire.data());
      auto f = dist::decode_frame_body(wire.data() + dist::kFrameHeaderBytes,
                                       body_len);
      volatile std::size_t sink = f.payload.size();
      (void)sink;
    });

    // The real thing over 127.0.0.1: framing + a gathered sendmsg from
    // the caller's thread + the receiving endpoint's event loop + the
    // ordered mailbox pop.
    const std::string tcp_row = "BM_TcpLoopbackSendRecv" + suffix;
    if (!h.wants(tcp_row)) continue;
    auto server = dist::TcpNetwork::serve(0, 1);
    auto worker = dist::TcpNetwork::connect("127.0.0.1", server->port(), 1, 1);
    server->wait_ready();
    h.run(tcp_row, 0, [&] {
      ByteBuffer buf;
      buf.write_floats(values.data(), values.size());
      worker->send(1, dist::kServerId, "fb", std::move(buf));
      auto m = server->receive_tagged(dist::kServerId, "fb");
      volatile std::size_t sink = m->payload.size();
      (void)sink;
    });
  }
}

void bench_broadcast_fanout(Harness& h) {
  // The server's per-round broadcast compose for W workers over k
  // generated batches (transport excluded). Legacy path: serialize each
  // recipient's two batches into its own contiguous buffer —
  // O(W * batch-bytes) of allocation and copying per round. SharedBuf
  // path: serialize each batch ONCE and share the refcounted blob
  // across every frame — O(k * batch-bytes) plus W tiny headers. The
  // B/iter column is the win the zero-copy broadcast bought.
  const std::size_t n_workers = 16, k = 2, floats = 8 * 784;
  std::vector<std::vector<float>> batches(k, std::vector<float>(floats));
  Rng rng(13);
  for (auto& b : batches) rng.fill_normal(b.data(), b.size(), 0.f, 1.f);
  std::vector<int> labels(8, 3);

  h.run("BM_BroadcastFanoutCopy/16x6272", 0, [&] {
    std::size_t total = 0;
    for (std::size_t p = 0; p < n_workers; ++p) {
      ByteBuffer out;
      for (std::size_t j : {p % k, (p + 1) % k}) {
        out.write_pod<std::uint32_t>(static_cast<std::uint32_t>(j));
        out.write_floats(batches[j].data(), batches[j].size());
        for (int y : labels) out.write_pod<std::int32_t>(y);
      }
      total += out.size();
    }
    volatile std::size_t sink = total;
    (void)sink;
  });

  h.run("BM_BroadcastFanout/16x6272", 0, [&] {
    std::vector<dist::SharedBuf::Segment> blobs;
    blobs.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      auto blob = std::make_shared<ByteBuffer>();
      blob->write_floats(batches[j].data(), batches[j].size());
      for (int y : labels) blob->write_pod<std::int32_t>(y);
      blobs.push_back(std::move(blob));
    }
    std::size_t total = 0;
    for (std::size_t p = 0; p < n_workers; ++p) {
      dist::SharedBuf out;
      for (std::size_t j : {p % k, (p + 1) % k}) {
        ByteBuffer head;
        head.write_pod<std::uint32_t>(static_cast<std::uint32_t>(j));
        out.append(std::make_shared<const ByteBuffer>(std::move(head)));
        out.append(blobs[j]);
      }
      total += out.size();
    }
    volatile std::size_t sink = total;
    (void)sink;
  });
}

void bench_derangement(Harness& h) {
  for (std::size_t n : {std::size_t{10}, std::size_t{50}}) {
    Rng rng(9);
    h.run("BM_Derangement/" + std::to_string(n), 0, [&] {
      auto p = rng.derangement(n);
      volatile std::size_t sink = p[0];
      (void)sink;
    });
  }
}

void bench_obs(Harness& h) {
  // The telemetry layer's hot-path costs. Enabled span: two clock reads
  // plus a per-thread buffer push (target < 100 ns). Disabled span: the
  // null/enabled branch only, ~0 ns and zero allocations — the
  // zero-overhead-when-off contract the obs tests pin. Counter inc: one
  // relaxed atomic RMW through a cached pointer.
  obs::Sink enabled_sink;
  enabled_sink.tracer().set_enabled(true);
  // The per-thread buffer cap bounds memory: once the bench saturates
  // it, a span degrades to the (cheaper) overflow-drop path, so the
  // figure blends push and drop — both are live-tracer costs.
  h.run("BM_SpanStartStop", 0, [&] {
    obs::Span s(&enabled_sink.tracer(), "bench", obs::Cat::kPhase, 0);
    volatile bool sink = s.active();
    (void)sink;
  });

  obs::Sink disabled_sink;  // no trace path => disabled
  h.run("BM_SpanStartStopDisabled", 0, [&] {
    obs::Span s(&disabled_sink.tracer(), "bench", obs::Cat::kPhase, 0);
    volatile bool sink = s.active();
    (void)sink;
  });

  obs::Counter& c = enabled_sink.registry().counter("bench_total");
  h.run("BM_RegistryCounterInc", 0, [&] {
    c.inc(3);
    volatile std::uint64_t sink = c.value();
    (void)sink;
  });

  // Flight recorder: enabled record = one fetch_add + a slot write
  // (the ring wraps freely — overwrite IS the steady state); disabled
  // record = one relaxed load, same contract as the disabled span.
  obs::FlightRecorder flight(1024);
  flight.set_enabled(true);
  h.run("BM_FlightRecord", 0, [&] {
    flight.record(obs::FlightKind::kSuspect, 1, 2, 3, 0.5);
    volatile std::uint64_t sink = flight.recorded();
    (void)sink;
  });

  obs::FlightRecorder flight_off(1024);
  h.run("BM_FlightRecordDisabled", 0, [&] {
    flight_off.record(obs::FlightKind::kSuspect, 1, 2, 3, 0.5);
    volatile std::uint64_t sink = flight_off.recorded();
    (void)sink;
  });
}

void bench_adam_step(Harness& h) {
  Rng rng(10);
  auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  auto g = gan::build_generator(arch, rng);
  opt::Adam adam(g.params(), g.grads(), {});
  for (auto* grad : g.grads()) {
    rng.fill_normal(grad->data(), grad->numel(), 0.f, 0.01f);
  }
  h.run("BM_AdamStepMlpGenerator", 0, [&] { adam.step(); });
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool tiny = flags.get_bool("tiny");
  const double min_time = tiny ? 0.02 : 0.25;
  std::printf("micro_ops: gemm_isa=%s threads=%zu%s\n", gemm_isa(),
              ThreadPool::global().size(), tiny ? " (tiny)" : "");
  Harness h(min_time, flags.get("filter", ""));

  bench_matmul_square(h);
  bench_matmul_gan_shaped(h);
  bench_conv2d_forward(h);
  bench_im2col(h);
  bench_mlp_generator_forward(h);
  bench_worker_feedback(h);
  bench_disc_learning_step(h);
  bench_leaky_relu(h);
  bench_swap_serialization(h);
  bench_feedback_compression(h);
  bench_wire_path(h);
  bench_broadcast_fanout(h);
  bench_derangement(h);
  bench_obs(h);
  bench_adam_step(h);

  if (flags.has("json")) {
    std::string path = flags.get("json", "");
    if (path.empty() || path == "true") path = "BENCH_micro_ops.json";
    h.write_json(path, tiny);
  }
  return 0;
}
