// The three benchmark workloads and the cluster each one runs on: an
// in-process SimNetwork, or a TcpNetwork loopback star with the server
// and every worker endpoint on its own engine thread of this process.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/md_gan.hpp"
#include "obs/sink.hpp"
#include "timed_transport.hpp"

namespace e2e {

struct Spec {
  const char* name;
  bool tcp;
  bool async;
  std::size_t workers, k, batch, disc_steps, shard;
};

// The workloads (README.md says why each one), in the order run.sh runs
// them. Every one trains the paper's MLP pair on synthetic digits with one
// discriminator per worker and E = 1; none sets an implementation knob
// such as --pipeline.
const std::vector<Spec>& specs();
const Spec* find_spec(const std::string& name);

class Cluster {
 public:
  // Synthesizes the seed's shards, builds the transports, waits out the
  // TCP rendezvous and constructs every role's MdGan. With a recorder,
  // each endpoint is wrapped in a TimedTransport that feeds it.
  Cluster(const Spec& spec, std::uint64_t seed, Recorder* recorder);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Runs global rounds [first, last] on every role; the hook fires on the
  // server after every round. Worker roles run on their own threads,
  // joined before this returns; a failure on any role is rethrown.
  void run(std::int64_t first, std::int64_t last,
           const mdgan::gan::EvalHook& hook);

  mdgan::core::MdGan& server() { return *roles_.front(); }
  // The server's endpoint (the whole simulator for SimNetwork): its
  // ledger covers every link, including the relayed W->W swaps.
  mdgan::dist::Transport& server_net() { return *endpoints_.front(); }
  // sinks()[0] is the server's, attached to its endpoint. Traced runs add
  // one per worker role of a TCP cluster, in worker order.
  const std::vector<std::unique_ptr<mdgan::obs::Sink>>& sinks() const {
    return sinks_;
  }
  void set_tracing(bool on);

 private:
  const Spec spec_;
  Recorder* recorder_;
  // Torn down trainers first, then wrappers, endpoints and, last, the
  // sinks the endpoints charge.
  std::vector<std::unique_ptr<mdgan::obs::Sink>> sinks_;
  std::vector<std::unique_ptr<mdgan::dist::Transport>> endpoints_;
  std::vector<std::unique_ptr<TimedTransport>> wrappers_;
  std::vector<std::unique_ptr<mdgan::core::MdGan>> roles_;
};

// The MdGan configuration every role of `spec` runs with.
mdgan::core::MdGanConfig config_of(const Spec& spec);

// 64-bit FNV-1a over the bytes of `v`.
std::uint64_t fnv1a(const std::vector<float>& v);

}  // namespace e2e
