// The transport seam of the cluster: one server (dist::kServerId) and N
// workers (ids 1..N) exchange tagged ByteBuffer messages through a
// dist::Transport. Two interchangeable backends implement it:
//
//  * SimNetwork (dist/sim_network.hpp) — the in-process deterministic
//    test double with a virtual clock driven by a LinkModel. Every
//    result in the repo's tables/figures is produced against it.
//  * TcpNetwork (dist/tcp_network.hpp) — length-prefixed frames over
//    POSIX TCP sockets, one endpoint per real process; sim_time() is
//    measured wall-clock instead of the modeled clock.
//
// The contract both keep:
//  * send(from, to, tag, payload) charges the per-link byte/message
//    accountants with payload.size() — the Table III/IV and Figure 2
//    numbers are measured off the wire for either backend.
//  * receive_tagged(node, tag) pops the queued message with the lowest
//    (sender id, per-sender sequence) key, never physical arrival
//    order; two sends issued by one sender in program order are always
//    observed in that order (per-sender FIFO). SimNetwork returns
//    std::nullopt when nothing matching is queued; TcpNetwork blocks
//    until a matching frame arrives (the peer runs in another process)
//    and returns std::nullopt only on timeout or a dead endpoint.
//  * Liveness is fail-stop (paper §V, Figure 5): a crashed worker's
//    sends/receives become no-ops and it leaves alive_workers()
//    forever. SimNetwork crashes via crash(); TcpNetwork additionally
//    maps a dropped connection onto the same semantics.
//  * sim_time()/advance_time()/max_sim_time() expose per-node elapsed
//    seconds: modeled (LinkModel virtual clock) on SimNetwork, measured
//    (wall clock since the endpoint came up; advance_time is a no-op)
//    on TcpNetwork. Either way MdGan's round_sim_seconds() reads the
//    same API, so modeled and measured time-to-score series line up.
//
// All methods are thread-safe on both backends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "obs/sink.hpp"

namespace mdgan::dist {

// Node id of the central server; workers are 1-based (1..N).
inline constexpr int kServerId = 0;

// Tag of the worker->server feedback messages (F_n): the workers send
// it, the round engine's collect loop pops it, and the registry counts
// its bytes as feedback_bytes_total{link}.
inline constexpr char kFeedbackTag[] = "feedback";

// Link direction classes of the paper's Table III.
enum class LinkKind { kServerToWorker, kWorkerToServer, kWorkerToWorker };

// Classify a (from, to) pair. Throws std::invalid_argument on
// server->server, which no protocol produces.
LinkKind link_kind(int from, int to);

struct LinkTotals {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

struct Message {
  int from = kServerId;
  std::string tag;
  ByteBuffer payload;
  // Arrival time (seconds) on the receiver's clock: simulated under
  // SimNetwork's link model (0 under the zero model), measured wall
  // clock under TcpNetwork.
  double arrival_s = 0.0;
  // Cross-node flow id assigned by the SENDING transport and carried in
  // the frame head (TCP) or the mailbox entry (sim); the receiver's
  // recv:<tag> trace event echoes it so a merged cluster trace can bind
  // the two spans with a flow arrow. 0 = untraced.
  std::uint64_t flow = 0;
};

// Deterministic flow-id scheme shared by both transports: the directed
// link endpoints packed with a per-link 1-based sequence. Unique across
// the cluster without coordination, stable across runs of the same
// schedule, and never 0 for a real send.
inline std::uint64_t flow_id(int from, int to, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(from + 1) << 48) |
         (static_cast<std::uint64_t>(to + 1) << 32) |
         static_cast<std::uint64_t>(seq);
}

// A refcounted, immutable, segmented payload: the zero-copy broadcast
// currency. The server serializes each generated batch ONCE into a
// `shared_ptr<const ByteBuffer>` and composes the per-worker frame as
// (tiny per-worker header segment, shared batch segment, ...). Sending
// W such frames shares the batch bytes across all W sends — the TCP
// backend writes the segments directly as sendmsg iovecs behind the
// frame head, the simulator charges size() exactly as if the segments
// had been concatenated — so wire bytes, accountant totals, and the
// receiver-visible payload are identical to a plain ByteBuffer send.
class SharedBuf {
 public:
  using Segment = std::shared_ptr<const ByteBuffer>;

  SharedBuf() = default;

  // Wraps a single owned buffer (one allocation, no byte copy).
  static SharedBuf wrap(ByteBuffer&& buf) {
    SharedBuf b;
    b.append(std::make_shared<const ByteBuffer>(std::move(buf)));
    return b;
  }

  void append(Segment seg) {
    if (seg == nullptr || seg->size() == 0) return;
    size_ += seg->size();
    segments_.push_back(std::move(seg));
  }

  const std::vector<Segment>& segments() const { return segments_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Bytes in segments referenced by at least one OTHER SharedBuf — the
  // allocation the refcounting avoided vs a per-recipient copy. Feeds
  // broadcast_bytes_saved_total.
  std::size_t shared_bytes() const {
    std::size_t n = 0;
    for (const auto& s : segments_) {
      if (s.use_count() > 1) n += s->size();
    }
    return n;
  }

  // Flattens into one owned ByteBuffer (the copying fallback).
  ByteBuffer concat() const {
    ByteBuffer out;
    for (const auto& s : segments_) out.append_raw(s->data(), s->size());
    return out;
  }

 private:
  std::vector<Segment> segments_;
  std::size_t size_ = 0;
};

class Transport {
 public:
  virtual ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual std::size_t n_workers() const = 0;

  // Marks the start of global iteration `iter`: closes the current
  // per-node ingress window (for max_ingress_per_iteration).
  virtual void begin_iteration(std::int64_t iter) = 0;

  // Serialized hand-off from -> to. Charges the link counters and the
  // destination's ingress window, then enqueues/transmits. Messages to
  // or from a crashed node are silently dropped (fail-stop: the bytes
  // never make it onto the wire). Throws on out-of-range ids.
  virtual void send(int from, int to, const std::string& tag,
                    ByteBuffer&& payload) = 0;

  // Segmented zero-copy variant: identical wire bytes, charges, and
  // receiver-visible payload as sending payload.concat(). Backends that
  // can, write the segments without flattening (TcpNetwork's sendmsg
  // iovec path); the default falls back to the concatenating send.
  virtual void send(int from, int to, const std::string& tag,
                    SharedBuf&& payload) {
    send(from, to, tag, payload.concat());
  }

  // Pops the queued message for `node` with tag `tag` that has the
  // smallest (sender id, sender sequence) key. See the header comment
  // for the per-backend blocking/nullopt semantics.
  virtual std::optional<Message> receive_tagged(int node,
                                                const std::string& tag) = 0;

  // Non-blocking receive_tagged: returns immediately with std::nullopt
  // when no matching message is queued right now, even on backends
  // whose receive_tagged blocks. The engine's collect loop uses it to
  // drain a dead sender's already-arrived feedback before shrinking the
  // round's expectation — never to poll for future traffic. The default
  // forwards to receive_tagged, correct for any backend that does not
  // block (SimNetwork); blocking backends must override.
  virtual std::optional<Message> try_receive_tagged(int node,
                                                    const std::string& tag) {
    return receive_tagged(node, tag);
  }

  // Number of messages currently queued at `node` (any tag).
  virtual std::size_t pending(int node) const = 0;

  // --- traffic accounting ---------------------------------------------
  virtual LinkTotals totals(LinkKind kind) const = 0;
  virtual std::uint64_t message_count(LinkKind kind) const = 0;
  // Largest number of bytes `node` received within any single iteration
  // window (the quantity plotted in Figure 2). The currently open
  // window participates, so the value is usable mid-run.
  virtual std::uint64_t max_ingress_per_iteration(int node) const = 0;

  // --- time ------------------------------------------------------------
  // Node's clock, seconds: simulated (SimNetwork) or measured
  // (TcpNetwork).
  virtual double sim_time(int node) const = 0;
  // Models local compute at `node` (>= 0; throws std::invalid_argument
  // on negative). No-op on TcpNetwork, where compute takes real time.
  virtual void advance_time(int node, double seconds) = 0;
  // Critical path so far: max clock over the *alive* nodes.
  virtual double max_sim_time() const = 0;

  // --- liveness --------------------------------------------------------
  // Fail-stop crash. The server cannot crash. Idempotent.
  virtual void crash(int worker) = 0;
  virtual bool is_alive(int node) const = 0;
  virtual std::vector<int> alive_workers() const = 0;
  virtual std::size_t alive_worker_count() const = 0;

  // Membership epoch: a counter this endpoint bumps on every membership
  // change it learns of — a local crash() / detected drop, a received
  // peer-death notice, a granted rejoin. Starts at 0; different
  // endpoints converge on (not necessarily equal) values, so callers
  // compare an epoch against an earlier snapshot from the SAME
  // endpoint, never across endpoints. A blocked TcpNetwork receive
  // wakes (returning nullopt) when the epoch moves, which is how the
  // engine learns to re-evaluate liveness mid-round instead of waiting
  // out the receive timeout.
  virtual std::uint64_t membership_epoch() const = 0;

  // --- rejoin / re-admission -------------------------------------------
  // The control plane (PR 7) grants a restarted worker a connection; the
  // hooks below are how the ROUND ENGINE turns that grant into a real
  // late join with state transfer. Backends without unscheduled rejoin
  // (SimNetwork) keep the defaults, which model an in-process admission:
  // no grants ever surface, announce_admission is a no-op and
  // ship_rejoin_state only counts the metric.

  // Server endpoint: drains the workers granted a rejoin since the last
  // call (TcpNetwork records them in grant_rejoin). The engine admits
  // each at the next round boundary.
  virtual std::vector<int> take_rejoin_grants() { return {}; }

  // Worker endpoints: drains the re-admissions announced by the server
  // (`!admit` broadcasts), so survivors fold the rejoiner back into
  // their own membership replay. `round` is the admission round the
  // server chose — strictly in the future of the round whose boundary
  // announced it, and every role (server included) applies it at that
  // same boundary. Agreement is guaranteed because the server writes
  // the `!admit` on its engine thread BEFORE the prior round's data
  // frames: per-connection FIFO then forces every survivor to have
  // consumed it by the time it reaches the admission round's own
  // membership boundary.
  struct Admission {
    int worker = 0;
    std::int64_t round = 0;
  };
  virtual std::vector<Admission> take_admissions() { return {}; }

  // Server endpoint: broadcast the `!admit` notice pinning `worker`'s
  // admission to `round` (see take_admissions for the ordering
  // contract). The default (sim / in-process: every role replays the
  // same admission from shared knowledge, nothing crosses a wire) is a
  // no-op.
  virtual void announce_admission(int worker, std::int64_t round) {
    (void)worker;
    (void)round;
  }

  // Server endpoint: the engine re-admitted `worker`; ship it the
  // serialized rejoin state (`!state`). Called at the admission round
  // itself, after the delegate rebirthed the discriminator, so the
  // payload carries the post-admission view. Both backends bump
  // rejoin_admitted_total here so the metric is backend-agnostic.
  virtual void ship_rejoin_state(int worker, ByteBuffer&& state) {
    obs_rejoin_admitted(worker, static_cast<std::int64_t>(state.size()));
    (void)state;
  }

  // Blocks until `node` is alive or `timeout_s` elapses; returns its
  // final aliveness. The engine calls this at a SCHEDULED
  // rejoin-with-state boundary so a role-split run waits for the
  // restarted process to dial back in, pinning the admission round to
  // the schedule on every role. Non-blocking backends (SimNetwork:
  // scheduled absence never drops the endpoint) answer immediately.
  virtual bool await_alive(int node, double timeout_s) {
    (void)timeout_s;
    return is_alive(node);
  }

  // --- observability ---------------------------------------------------
  // Attaches a telemetry sink (nullptr detaches, the default): every
  // charged send increments the registry's bytes_total{link} /
  // messages_total{link} counters (plus feedback_bytes_total{link} for
  // kFeedbackTag traffic, which therefore matches the accountant's
  // totals exactly on the links feedback crosses), and — when the
  // sink's tracer is enabled — both backends record per-frame send/recv
  // trace events. The backend's own threads may already be running: the
  // instruments are swapped under the lock those threads hold while
  // they read them (lock_instruments). The sink must outlive the
  // attachment. Detached (the default) instrumentation costs one branch
  // and allocates nothing.
  void set_sink(obs::Sink* sink);
  obs::Sink* sink() const { return sink_; }

 protected:
  Transport() = default;

  // Charge the per-link registry counters for one accounted message.
  // Counter updates are relaxed atomics: safe under any backend lock.
  void obs_charge(LinkKind kind, const std::string& tag,
                  std::size_t bytes) {
    if (sink_ == nullptr) return;
    const auto k = static_cast<std::size_t>(kind);
    link_obs_[k].bytes->inc(bytes);
    link_obs_[k].messages->inc();
    if (tag == kFeedbackTag) link_obs_[k].feedback_bytes->inc(bytes);
  }
  // The attached tracer when span recording is on, else nullptr.
  obs::Tracer* obs_tracer() const {
    if (sink_ == nullptr) return nullptr;
    obs::Tracer& t = sink_->tracer();
    return t.enabled() ? &t : nullptr;
  }
  // Per-frame net spans, `send:<tag>` and `recv:<tag>`, from `wall_t0_ns`
  // to now on `tracer` (obs_tracer(), fetched before the operation
  // started). The recv span runs from the message's arrival to `sim_t1`
  // on the receiver's clock and carries the sender's flow id. Call with
  // no backend lock held.
  static void trace_send(obs::Tracer* tracer, int node, const std::string& tag,
                         std::int64_t wall_t0_ns, double sim_t0, double sim_t1,
                         std::size_t bytes, std::uint64_t flow);
  static void trace_recv(obs::Tracer* tracer, int node,
                         std::int64_t wall_t0_ns, const Message& msg,
                         double sim_t1);

  // Control-plane instruments (membership_epoch gauge,
  // peer_deaths_total / rejoins_total counters). Relaxed atomics like
  // obs_charge: safe under any backend lock. Each also records the
  // matching flight-recorder lifecycle event (obs/flight_recorder.hpp),
  // so the post-mortem JSONL carries the same sequence the counters
  // summarize — with worker ids and timestamps the counters lose.
  void obs_membership_epoch(std::uint64_t epoch) {
    if (epoch_gauge_ != nullptr) {
      epoch_gauge_->set(static_cast<double>(epoch));
    }
    if (flight_ != nullptr) {
      flight_->record(obs::FlightKind::kEpochBump, -1,
                      static_cast<std::int64_t>(epoch));
    }
  }
  void obs_peer_death(int worker = -1, double sim_s = -1.0) {
    if (peer_deaths_total_ != nullptr) peer_deaths_total_->inc();
    if (flight_ != nullptr) {
      flight_->record(obs::FlightKind::kPeerDeath, worker, 0, 0, sim_s);
    }
  }
  void obs_rejoin(int worker = -1, std::uint64_t epoch = 0) {
    if (rejoins_total_ != nullptr) rejoins_total_->inc();
    if (flight_ != nullptr) {
      flight_->record(obs::FlightKind::kRejoinGrant, worker,
                      static_cast<std::int64_t>(epoch));
    }
  }
  void obs_rejoin_admitted(int worker = -1, std::int64_t state_bytes = -1) {
    if (rejoin_admitted_total_ != nullptr) rejoin_admitted_total_->inc();
    if (flight_ != nullptr) {
      flight_->record(obs::FlightKind::kStateTransfer, worker, state_bytes);
    }
  }
  void obs_suspect(int worker = -1) {
    if (suspects_total_ != nullptr) suspects_total_->inc();
    if (flight_ != nullptr) {
      flight_->record(obs::FlightKind::kSuspect, worker);
    }
  }
  void obs_reseat(int worker) {
    if (flight_ != nullptr) {
      flight_->record(obs::FlightKind::kReseat, worker);
    }
  }
  void obs_grace_death(int worker) {
    if (flight_ != nullptr) {
      flight_->record(obs::FlightKind::kGraceDeath, worker);
    }
  }
  void obs_heartbeat_rtt(double seconds) {
    if (heartbeat_rtt_s_ != nullptr) heartbeat_rtt_s_->observe(seconds);
  }
  // Send-queue instruments: queue occupancy after an enqueue, seconds
  // a producer spent blocked on a full queue, payload bytes the
  // refcounted broadcast did NOT copy, and frames dropped when a send
  // queue is torn down for a dead peer (also a flight-recorder event so
  // the post-mortem shows what never reached the wire).
  void obs_queue_depth(std::size_t depth) {
    if (queue_depth_gauge_ != nullptr) {
      queue_depth_gauge_->set(static_cast<double>(depth));
    }
  }
  void obs_queue_stall(double seconds) {
    if (queue_stall_s_ != nullptr) queue_stall_s_->observe(seconds);
  }
  void obs_broadcast_saved(std::size_t bytes) {
    if (broadcast_saved_total_ != nullptr && bytes > 0) {
      broadcast_saved_total_->inc(bytes);
    }
  }
  void obs_writer_drop(int worker, std::uint64_t frames,
                       std::uint64_t bytes) {
    if (flight_ != nullptr && frames > 0) {
      flight_->record(obs::FlightKind::kWriterDrop, worker,
                      static_cast<std::int64_t>(frames),
                      static_cast<std::int64_t>(bytes));
    }
  }
  void obs_dial_retries(std::uint64_t n) {
    if (dial_retries_total_ != nullptr && n > 0) {
      dial_retries_total_->inc(n);
      if (flight_ != nullptr) {
        flight_->record(obs::FlightKind::kDialRetry, -1,
                        static_cast<std::int64_t>(n));
      }
    }
  }
  // Instruments resolve lazily at set_sink time; a backend that counted
  // events before the sink attached (TcpNetwork's dial retries happen
  // inside connect(), necessarily pre-attach) flushes them here.
  virtual void on_sink_attached() {}
  // The lock under which set_sink swaps the instrument pointers: the
  // one a backend's own threads hold whenever they read them
  // (TcpNetwork's event loop reads them under its mutex). The default
  // holds nothing, for backends whose instruments only callers read.
  virtual std::unique_lock<std::mutex> lock_instruments() { return {}; }

 private:
  // set_sink's body, under lock_instruments(): points every instrument
  // at `sink` (or nulls them) and publishes `epoch` on the gauge.
  void bind_instruments(obs::Sink* sink, std::uint64_t epoch);

  struct LinkObs {
    obs::Counter* bytes = nullptr;
    obs::Counter* messages = nullptr;
    obs::Counter* feedback_bytes = nullptr;
  };
  obs::Sink* sink_ = nullptr;
  LinkObs link_obs_[3];
  obs::FlightRecorder* flight_ = nullptr;  // enabled recorder, else null
  obs::Gauge* epoch_gauge_ = nullptr;
  obs::Counter* peer_deaths_total_ = nullptr;
  obs::Counter* rejoins_total_ = nullptr;
  obs::Counter* rejoin_admitted_total_ = nullptr;
  obs::Counter* suspects_total_ = nullptr;
  obs::Counter* dial_retries_total_ = nullptr;
  obs::Histogram* heartbeat_rtt_s_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Histogram* queue_stall_s_ = nullptr;
  obs::Counter* broadcast_saved_total_ = nullptr;
};

// "c2w" / "w2c" / "w2w": the label value of the per-link metrics and
// the column names the benches print.
const char* link_label(LinkKind kind);

}  // namespace mdgan::dist
