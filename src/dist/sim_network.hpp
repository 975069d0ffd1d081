// In-process simulated cluster transport — the deterministic test
// double behind the dist::Transport interface (see transport.hpp for
// the contract shared with the real TCP backend). Every payload is
// really serialized, so the byte totals the accountant reports
// (Table III/IV, Figure 2) are measured off the wire, not estimated
// from formulas.
//
// Delivery model: send() enqueues into the destination's mailbox and
// the traffic counters are charged immediately (messages are always
// consumed later in the same global iteration). receive_tagged() pops
// the matching message with the lowest (sender, per-sender sequence)
// key, NOT physical arrival order: the workers run on the compute pool,
// so the physical enqueue order is racy, and deterministic pop order is
// what keeps a pooled run bit-identical to a serial one
// (tests/core/test_round_engine.cpp, RoundEngineMdGan.*Reference*). A
// corollary the protocols rely on: two sends issued by the same sender
// in program order are queued in that order under one mutex
// (dist::Mailbox), so per-sender FIFO holds even when sends race on the
// cluster thread pool (tests/dist/test_network.cpp
// SameSenderFifoUnderClusterPool).
//
// Simulated time: the SimNetwork also keeps a deterministic virtual
// clock per node, driven by the attached LinkModel (default: the zero
// model, which keeps every clock at 0 and all behavior identical to the
// clock-less transport). send() stamps each message with its arrival
// time — sender clock, plus per-link queueing/transmit/latency/jitter —
// and receive_tagged() advances the receiver's clock to
// max(own clock, message arrival). advance_time() lets callers model
// local compute. Simulated time never changes what is sent or received,
// only the timestamps; byte/message accounting is model-independent.
//
// Aggregate NIC caps: when the LinkModel carries a per-node NIC
// bandwidth cap (LinkModel::set_nic), a node's concurrent transfers
// additionally serialize through that shared interface — egress at the
// sender, ingress at the receiver — so N workers pushing feedback into
// the server contend for the server's one NIC instead of enjoying N
// independent link capacities. Nodes without a cap keep the PR 2
// independent-link behavior bit-identically.
//
// Liveness is fail-stop (paper §V, Figure 5): crash(w) drops the
// worker's queued mail, makes its future sends/receives no-ops, and
// removes it from alive_workers(). Crashed workers never come back.
// Every first crash of a worker bumps the membership epoch, modeling
// the TcpNetwork control plane's epoch bumps so engine code written
// against membership_epoch() behaves identically on either backend.
//
// All public methods are thread-safe; workers running on the compute
// thread pool may send/receive concurrently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "dist/link_model.hpp"
#include "dist/liveness.hpp"
#include "dist/mailbox.hpp"
#include "dist/transport.hpp"

namespace mdgan::dist {

class SimNetwork final : public Transport {
 public:
  explicit SimNetwork(std::size_t n_workers);

  std::size_t n_workers() const override { return n_workers_; }

  void begin_iteration(std::int64_t iter) override;
  void send(int from, int to, const std::string& tag,
            ByteBuffer&& payload) override;
  // Segmented sends charge exactly as their concatenation would (the
  // TCP-vs-sim totals exactness contract), after crediting the bytes
  // the refcounting shared across recipients.
  void send(int from, int to, const std::string& tag,
            SharedBuf&& payload) override;
  // Returns std::nullopt if no matching message is queued or the node
  // has crashed (never blocks: senders run in the same process).
  std::optional<Message> receive_tagged(int node,
                                        const std::string& tag) override;
  std::size_t pending(int node) const override;

  // --- traffic accounting ---------------------------------------------
  LinkTotals totals(LinkKind kind) const override;
  std::uint64_t message_count(LinkKind kind) const override;
  std::uint64_t max_ingress_per_iteration(int node) const override;

  // --- simulated time --------------------------------------------------
  // Replaces the link model. Legal at any point; only future sends are
  // affected. Setting a zero model re-disables all clock arithmetic
  // (clocks keep their current values).
  void set_link_model(LinkModel model);
  const LinkModel& link_model() const;

  double sim_time(int node) const override;
  void advance_time(int node, double seconds) override;
  // Critical path so far: max clock over the *alive* nodes (a crashed
  // worker's frozen clock must not dominate the round time forever).
  double max_sim_time() const override;

  // --- liveness --------------------------------------------------------
  void crash(int worker) override;
  bool is_alive(int node) const override;
  std::vector<int> alive_workers() const override;
  std::size_t alive_worker_count() const override;
  std::uint64_t membership_epoch() const override;

  // --- partitions ------------------------------------------------------
  // The liveness policy the partition primitive judges against (the
  // same knobs TcpOptions feeds its LivenessTracker). Unset (the
  // default, heartbeat_interval_s == 0) a partition only delays
  // delivery and nothing is ever suspected.
  void set_liveness(const LivenessConfig& cfg);
  // Deterministic twin of a real network partition: worker `w` is
  // unreachable during [from_s, until_s) of virtual time — any message
  // to or from it departing inside the window has its arrival floored
  // to until_s (the stall a stalled link produces). Judged against the
  // liveness policy eagerly (the whole window is known up front, so the
  // outcome is too): a window outlasting suspect_after_s counts one
  // suspect episode (suspects_total); one outlasting
  // suspect_after_s + grace_s hardens into eviction — crash(w) — which
  // is exactly what the TCP tracker would decide at until_s.
  void partition(int w, double from_s, double until_s);
  // Suspect episodes declared so far (mirrors suspects_total).
  std::uint64_t suspect_count() const;

 private:
  void check_node(int node) const;
  std::size_t link_index(LinkKind kind) const {
    return static_cast<std::size_t>(kind);
  }
  // Flat index of the directed link from -> to.
  std::size_t pair_index(int from, int to) const {
    return static_cast<std::size_t>(from) * (n_workers_ + 1) +
           static_cast<std::size_t>(to);
  }

  std::size_t n_workers_;
  mutable std::mutex mu_;
  std::vector<bool> alive_;                  // index 0 = server
  std::uint64_t epoch_ = 0;  // bumped once per first crash of a worker
  std::vector<Mailbox> mailbox_;  // per destination node
  LinkTotals totals_[3];
  std::vector<std::uint64_t> ingress_window_;  // open window, per node
  std::vector<std::uint64_t> ingress_max_;     // closed-window max

  // Virtual clock state (all zeros under the zero model).
  LinkModel model_;
  bool model_zero_ = true;             // cached LinkModel::zero()
  std::vector<double> sim_time_;       // per node
  std::vector<double> link_busy_;      // per directed link, pair_index
  std::vector<std::uint64_t> link_seq_;  // messages ever sent per link
  std::vector<std::uint64_t> flow_seq_;  // trace flow ids, per link
  std::vector<double> nic_out_busy_;   // per node, shared egress NIC
  std::vector<double> nic_in_busy_;    // per node, shared ingress NIC

  // Partition state.
  LivenessConfig liveness_;
  struct Window {
    double from_s = 0.0;
    double until_s = 0.0;
  };
  std::vector<std::vector<Window>> partitions_;  // per node
  std::uint64_t suspect_count_ = 0;
};

}  // namespace mdgan::dist
