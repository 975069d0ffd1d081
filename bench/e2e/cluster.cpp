#include "cluster.hpp"

#include <exception>
#include <stdexcept>
#include <thread>

#include "common/log.hpp"
#include "data/synthetic.hpp"
#include "dist/sim_network.hpp"
#include "dist/tcp_network.hpp"

namespace e2e {

using namespace mdgan;

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      // name, tcp, async, W, k, b, L, shard
      {"sim-w8-compute", false, false, 8, 2, 32, 1, 2048},
      {"tcp-sync-swap", true, false, 3, 2, 16, 1, 64},
      {"tcp-async-small", true, true, 3, 2, 8, 1, 1024},
  };
  return all;
}

const Spec* find_spec(const std::string& name) {
  for (const auto& s : specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

core::MdGanConfig config_of(const Spec& spec) {
  core::MdGanConfig cfg;
  cfg.hp.batch = spec.batch;
  cfg.hp.disc_steps = spec.disc_steps;
  cfg.k = spec.k;
  cfg.epochs_per_swap = 1;
  cfg.async = spec.async;
  return cfg;
}

std::uint64_t fnv1a(const std::vector<float>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

Cluster::Cluster(const Spec& spec, std::uint64_t seed, Recorder* recorder)
    : spec_(spec), recorder_(recorder) {
  const auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  const std::size_t w_count = spec.workers;
  auto full = data::make_synthetic_digits(w_count * spec.shard, seed);
  Rng split_rng(seed);
  auto shards = data::split_iid(full, w_count, split_rng);

  const std::size_t n_endpoints = spec.tcp ? w_count + 1 : 1;
  // Only the server endpoint is given a sink, before any worker dials in:
  // its ledger covers every link, and a sink attached to an endpoint that
  // is already exchanging frames races with its reader thread. Traced runs
  // give each worker role a sink of its own through its TimedTransport.
  sinks_.push_back(std::make_unique<obs::Sink>());
  if (spec.tcp) {
    dist::TcpOptions opts;
    opts.rendezvous_timeout_s = 20.0;
    opts.receive_timeout_s = 60.0;  // a wedged run fails well inside 180 s
    endpoints_.push_back(dist::TcpNetwork::serve(0, w_count, opts));
    endpoints_[0]->set_sink(sinks_[0].get());
    const std::uint16_t port =
        static_cast<dist::TcpNetwork&>(*endpoints_[0]).port();
    for (std::size_t w = 1; w <= w_count; ++w) {
      endpoints_.push_back(dist::TcpNetwork::connect(
          "127.0.0.1", port, static_cast<int>(w), w_count, opts));
    }
    for (auto& ep : endpoints_) {
      if (!static_cast<dist::TcpNetwork&>(*ep).wait_ready()) {
        throw std::runtime_error("TCP rendezvous did not complete");
      }
    }
  } else {
    endpoints_.push_back(std::make_unique<dist::SimNetwork>(w_count));
    endpoints_[0]->set_sink(sinks_[0].get());
  }

  if (recorder_ != nullptr) {
    for (std::size_t i = 0; i < n_endpoints; ++i) {
      if (i > 0) sinks_.push_back(std::make_unique<obs::Sink>());
      wrappers_.push_back(std::make_unique<TimedTransport>(
          *endpoints_[i], *recorder_,
          spec.tcp ? std::optional<int>(static_cast<int>(i)) : std::nullopt));
    }
  }
  auto net_of = [&](std::size_t i) -> dist::Transport& {
    if (recorder_ != nullptr) return *wrappers_[i];
    return *endpoints_[i];
  };

  core::MdGanConfig cfg = config_of(spec);
  if (!spec.tcp) {
    cfg.sink = sinks_[0].get();
    roles_.push_back(std::make_unique<core::MdGan>(arch, cfg,
                                                   std::move(shards), seed,
                                                   net_of(0)));
    return;
  }
  core::MdGanConfig scfg = cfg;
  scfg.sink = sinks_[0].get();
  scfg.shard_size = spec.shard;
  roles_.push_back(std::make_unique<core::MdGan>(
      arch, scfg, std::vector<data::InMemoryDataset>{}, seed, net_of(0),
      nullptr, core::NodeRole::server()));
  for (std::size_t w = 1; w <= w_count; ++w) {
    core::MdGanConfig wcfg = cfg;
    if (recorder_ != nullptr) wcfg.sink = sinks_[w].get();
    roles_.push_back(std::make_unique<core::MdGan>(
        arch, wcfg, std::vector<data::InMemoryDataset>{shards[w - 1]}, seed,
        net_of(w), nullptr, core::NodeRole::worker(static_cast<int>(w))));
  }
}

Cluster::~Cluster() {
  roles_.clear();
  wrappers_.clear();
  // Closing one endpoint reads as a peer death on the others; that is the
  // expected end of a run, not a warning.
  const LogLevel level = log_level();
  set_log_level(LogLevel::kError);
  endpoints_.clear();
  set_log_level(level);
}

void Cluster::run(std::int64_t first, std::int64_t last,
                  const gan::EvalHook& hook) {
  if (!spec_.tcp) {
    server().train_from(first, last, 1, hook);
    return;
  }
  std::vector<std::exception_ptr> errors(roles_.size());
  std::vector<std::thread> workers;
  for (std::size_t w = 1; w < roles_.size(); ++w) {
    workers.emplace_back([&, w] {
      try {
        roles_[w]->train_from(first, last);
      } catch (...) {
        errors[w] = std::current_exception();
        // A dropped connection fail-stops this worker on the server, so
        // the server degrades the round instead of waiting out a timeout.
        static_cast<dist::TcpNetwork&>(*endpoints_[w]).close();
      }
    });
  }
  try {
    server().train_from(first, last, 1, hook);
  } catch (...) {
    errors[0] = std::current_exception();
    static_cast<dist::TcpNetwork&>(*endpoints_[0]).close();
  }
  for (auto& t : workers) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void Cluster::set_tracing(bool on) {
  for (auto& s : sinks_) s->tracer().set_enabled(on);
  if (recorder_ != nullptr) recorder_->set_on(on);
}

}  // namespace e2e
