// Real TCP transport: the dist::Transport contract over POSIX sockets,
// so the MD-GAN protocol runs as actual processes on one machine or
// many instead of inside the SimNetwork test double.
//
// Topology: a star. The server (node 0) listens; each worker dials in
// and introduces itself with a control frame carrying its 1-based id
// (the rendezvous). Worker->worker traffic (discriminator swaps) is
// relayed through the server, which makes the server endpoint's traffic
// accountant *global*: it observes every S->W send, every W->S arrival
// and every W->W relay, so its totals(LinkKind) match the SimNetwork's
// for the same protocol run — the property the loopback equivalence
// test pins. Relayed frames are charged by payload size on the logical
// W->W link, exactly like SimNetwork charges them; transport framing
// overhead and control frames are never charged.
//
// Ordering: each endpoint feeds arriving frames into the same
// (sender, per-sender sequence)-ordered dist::Mailbox the simulator
// uses. Per-sender FIFO is inherited from TCP's in-order delivery (one
// connection per worker; relayed frames from one source are forwarded
// by the one event loop in arrival order), and receive_tagged pops the
// lowest (sender, seq) key among queued matches. Unlike SimNetwork it
// BLOCKS until a match arrives — the sender lives in another process —
// returning std::nullopt only when the local node is dead or the
// configured receive timeout expires.
//
// Threading: each endpoint, server or worker, runs exactly ONE thread,
// an epoll event loop. It owns the listen socket, every connection, an
// eventfd wake-up and a timer (every 200 ms, or the heartbeat interval
// when shorter) that drives the heartbeats and the control pump — the
// !death / !epoch fan-out of membership changes. Each connection is a
// nonblocking frame-reassembly state machine (dist::FrameReader) on its
// read side and a drain of a bounded FIFO of outgoing frames on its
// write side. An unfinished hello or a `!stats` probe is just another
// connection state, so a stalled or hostile dialer cannot hold up the
// rendezvous, the control pump or the heartbeats. send() runs on the
// caller's thread: with the connection's queue empty it writes straight
// to the socket and queues only what the socket did not take; a full
// queue blocks the caller (backpressure) until the loop drains a slot
// or the connection dies. The loop itself never blocks: control frames
// bypass the bound, and a relayed W->W frame whose destination queue is
// full turns off reading from its source connection until that queue
// drains.
//
// Liveness: fail-stop, detected, and PROPAGATED. A dropped connection
// (EOF or a socket error on read/write) marks the peer dead exactly
// like SimNetwork::crash: it leaves alive_workers(), and future sends
// to it are silently dropped. crash(w) on the server endpoint actively
// severs the connection.
//
// Control plane: only the server endpoint observes a worker's TCP drop
// directly, so it runs a small '!'-tagged control-frame protocol (see
// frame.hpp for the vocabulary) that the other workers consume:
//  * every membership change bumps a monotonically increasing
//    membership epoch (membership_epoch()), and the server broadcasts
//    the new epoch plus its live-worker bitmap as a !epoch frame;
//  * a detected death additionally broadcasts a !death notice, so
//    surviving workers map the victim onto fail-stop without ever
//    having exchanged a byte with it;
//  * the listener stays open past the rendezvous, and a re-dial from
//    an id whose previous connection died is GRANTED (a !rejoin frame,
//    then the !epoch ack) instead of rejected as a duplicate hello —
//    the worker comes back under a bumped epoch, exactly like an
//    AvailabilitySchedule rejoin. A hello for an id that is still
//    connected remains a rejected duplicate.
// An epoch bump wakes any blocked receive_tagged (it returns nullopt),
// which is how the round engine learns to re-check liveness mid-round.
// Control frames are never charged to the traffic accountants.
//
// Time: sim_time()/max_sim_time() report *measured* wall-clock seconds
// since the endpoint finished construction — the same API the PR 2
// virtual clock defined, so MdGan::round_sim_seconds() becomes measured
// round time on a real cluster. advance_time() is a no-op: local
// compute takes actual time here.
//
// Each endpoint is ONE node: send()/receive_tagged()/pending() only
// accept the local node id (plus any destination for send). Use
// core::NodeRole to run MdGan against an endpoint.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/frame.hpp"
#include "dist/liveness.hpp"
#include "dist/mailbox.hpp"
#include "dist/transport.hpp"

namespace mdgan::dist {

struct TcpOptions {
  // Deadline for the rendezvous: the server waits this long for all
  // workers to dial in; a worker retries its connect until it.
  double rendezvous_timeout_s = 30.0;
  // Blocking receive deadline; 0 waits forever.
  double receive_timeout_s = 120.0;
  // Worker dial policy: up to 1 + dial_retries connect attempts, with
  // bounded exponential backoff between them — attempt i sleeps
  // min(dial_backoff_ms * 2^i, 2000ms) plus a deterministic jitter
  // derived from (worker id, attempt), so a thundering herd of
  // rejoiners decorrelates without losing reproducibility. The
  // rendezvous deadline still bounds the whole dial, whichever limit
  // trips first.
  int dial_retries = 100;
  double dial_backoff_ms = 25.0;
  // Heartbeats and the suspect -> grace -> dead state machine (server
  // endpoint; dist/liveness.hpp): `!ping` every heartbeat_interval_s,
  // timed by the event loop. Off by default. A dead verdict evicts the
  // worker through the normal !death path; any frame from a suspect
  // re-seats it with no epoch change.
  LivenessConfig liveness;
  // Bound of the per-connection send queue (frames). A frame the socket
  // does not take at once waits here for the event loop to drain it; a
  // full queue blocks the producer (backpressure, observed by the
  // send_queue_stall_seconds histogram) until the loop frees a slot or
  // the peer dies — a dead peer's queue is dropped wholesale so the
  // crash control plane never waits on undeliverable frames.
  std::size_t send_queue_depth = 128;
};

class TcpNetwork final : public Transport {
 public:
  using Options = TcpOptions;

  // Server endpoint: binds 0.0.0.0:`port` (0 picks an ephemeral port,
  // see port()) and accepts `n_workers` registrations in the
  // background. Returns immediately after listen; sends to a worker
  // that has not yet registered block until it does (or the rendezvous
  // deadline passes). Throws std::runtime_error on socket failure.
  static std::unique_ptr<TcpNetwork> serve(std::uint16_t port,
                                           std::size_t n_workers,
                                           Options opts = {});

  // Worker endpoint `worker_id` in [1, n_workers]: dials host:port,
  // retrying until the rendezvous deadline. Throws std::runtime_error
  // if the server cannot be reached.
  static std::unique_ptr<TcpNetwork> connect(const std::string& host,
                                             std::uint16_t port,
                                             int worker_id,
                                             std::size_t n_workers,
                                             Options opts = {});

  ~TcpNetwork() override;

  int local_node() const { return local_; }
  // The actually-bound listen port (server endpoint only).
  std::uint16_t port() const { return port_; }
  // Blocks until every worker has registered (server) or until the
  // server's !epoch hello-ack arrives (worker). Returns false if the
  // rendezvous deadline passed first, or if the endpoint began closing
  // mid-rendezvous — callers must not proceed into send() on an
  // endpoint that is tearing down.
  bool wait_ready();

  // Idempotent teardown (also run by the destructor): gives queued
  // frames a bounded linger to reach the wire, then stops the event loop
  // and severs every connection. Any blocked wait_ready()/
  // receive_tagged()/send() returns false/nullopt.
  void close();

  // True once the server granted this worker endpoint a rejoin (its id
  // had dialed in before on a connection that has since died).
  bool rejoin_granted() const;

  // Worker endpoint: blocks until the server's `!state` rejoin transfer
  // arrives (the serialized core::RejoinState, opaque at this layer) or
  // timeout_s elapses / the endpoint closes (nullopt). The engine
  // re-admits at a round boundary, so expect up to one round of delay
  // after the grant.
  std::optional<ByteBuffer> wait_rejoin_state(double timeout_s);

  // Liveness introspection (server endpoint; tests and drills).
  bool is_suspect(int worker) const;
  std::uint64_t suspect_count() const;
  // Failed connect attempts this endpoint retried through (worker).
  std::uint64_t dial_retry_count() const;

  // Blocks until membership_epoch() >= at_least (true) or timeout_s
  // elapsed / the endpoint is closing (false).
  bool wait_membership_epoch(std::uint64_t at_least, double timeout_s);

  // Last frame delivered by the connection to `peer`, for drop
  // diagnostics: this is the dead peer's OWN stream position (frames
  // counted per connection), not the endpoint-global last arrival.
  struct ConnRxStats {
    bool any = false;          // false: nothing ever arrived on it
    int src = -1;              // original sender of the last frame
    std::string tag;           // tag of the last frame
    std::uint64_t frames = 0;  // frames delivered by this connection
    double at_s = 0.0;         // arrival time, endpoint clock
  };
  ConnRxStats last_rx_of(int peer) const;

  std::size_t n_workers() const override { return n_workers_; }
  void begin_iteration(std::int64_t iter) override;
  void send(int from, int to, const std::string& tag,
            ByteBuffer&& payload) override;
  // Zero-copy broadcast path: the payload segments ride the sendmsg
  // iovec array (and the send queue) by reference; W queued broadcast frames
  // share one serialized batch. Wire bytes and charges are identical to
  // sending payload.concat().
  void send(int from, int to, const std::string& tag,
            SharedBuf&& payload) override;
  std::optional<Message> receive_tagged(int node,
                                        const std::string& tag) override;
  std::optional<Message> try_receive_tagged(int node,
                                            const std::string& tag) override;
  std::size_t pending(int node) const override;

  LinkTotals totals(LinkKind kind) const override;
  std::uint64_t message_count(LinkKind kind) const override;
  std::uint64_t max_ingress_per_iteration(int node) const override;

  double sim_time(int node) const override;
  void advance_time(int node, double seconds) override;
  double max_sim_time() const override;

  void crash(int worker) override;
  bool is_alive(int node) const override;
  std::vector<int> alive_workers() const override;
  std::size_t alive_worker_count() const override;
  std::uint64_t membership_epoch() const override;

  std::vector<int> take_rejoin_grants() override;
  std::vector<Admission> take_admissions() override;
  void announce_admission(int worker, std::int64_t round) override;
  void ship_rejoin_state(int worker, ByteBuffer&& state) override;
  bool await_alive(int node, double timeout_s) override;

 private:
  // One outgoing frame: the pre-payload bytes (header + fixed fields +
  // tag) plus the refcounted payload segments, written as one gathered
  // sendmsg. Broadcast frames queued to W connections share their batch
  // segments — the queue holds references, never copies.
  struct OutFrame {
    std::vector<std::uint8_t> head;
    SharedBuf body;
    std::size_t sent = 0;  // bytes already on the wire
  };
  struct Conn : std::enable_shared_from_this<Conn> {
    int fd = -1;  // written only by the loop, under mu_
    // Worker id (server side) or kServerId (worker side); -1 while the
    // connection has not introduced itself yet.
    int peer = -1;
    // Loop thread only.
    FrameReader reader;
    double hello_deadline_s = 0.0;
    // Under mu_. Every writer — the loop or a producer's send() — drains
    // the queue in order, so per-connection FIFO (the ordering contract
    // the !admit broadcast and the mailbox rely on) holds.
    std::deque<OutFrame> queue;
    std::uint32_t events = 0;  // the registered epoll interest
    int stalled_on = -1;   // relay destination whose full queue pauses us
    bool dead = false;     // failed or retired: queue dropped, sends refused
    bool close_when_flushed = false;  // a !stats reply: close once written
    ConnRxStats rx;        // last frame this connection delivered
  };
  using ConnPtr = std::shared_ptr<Conn>;

  TcpNetwork(int local, std::size_t n_workers, Options opts);

  void check_node(int node) const;
  void check_local(int node, const char* what) const;
  double elapsed_s() const;
  static std::chrono::steady_clock::time_point deadline_in(double seconds);

  // --- the event loop and the data plane (tcp_network.cpp) -------------
  void run_loop();
  // Registers `fd` (made nonblocking) as a new connection of the loop.
  ConnPtr add_conn(int fd, int peer);
  // Loop thread: reads and dispatches whatever `c` has for us; a
  // hung-up connection is read to its end, then closed.
  void on_readable(Conn& c, bool hangup);
  // One complete frame off `c`; false stops reading `c` for now.
  bool dispatch(Conn& c, Frame& f);
  // The first frame of a fresh server-side connection: hello, rejoin
  // or !stats probe.
  void on_hello(Conn& c, Frame& f);
  std::optional<Message> receive(const std::string& tag, bool block);
  // The *_locked functions run under mu_, on the loop or a caller.
  static OutFrame make_frame(int src, int dst, const std::string& tag,
                             SharedBuf body, const TraceCtx& ctx = {});
  // Queues `f` on `c` and writes what the socket takes now. Never
  // blocks; false when `c` is already dead.
  bool push_locked(Conn& c, OutFrame&& f);
  // Nonblocking gathered write of the queue head; false on a socket
  // error.
  bool flush_locked(Conn& c);
  // `c`'s queue dropped below its bound (or died): wake blocked
  // producers and resume the relay sources paused behind it.
  void release_locked(const Conn& c);
  void set_interest_locked(Conn& c);
  // Marks a connection dead: drops its queue (a writer_drop flight
  // event when frames are lost), severs the socket, releases waiters.
  // The loop then reaps it.
  void fail_conn_locked(Conn& c);
  // Loop thread: fail-stops the connection's peer and closes its fd.
  void close_conn_locked(Conn& c);
  void enqueue_local_locked(int src, const std::string& tag,
                            ByteBuffer&& payload, std::uint64_t flow);
  void charge_locked(int src, int dst, const std::string& tag,
                     std::size_t bytes);
  void on_sink_attached() override;

  // --- the membership control plane (tcp_control.cpp) ------------------
  // Loop thread, on its timer: stale hellos; on the server also the
  // control pump (!death / !epoch fan-out), heartbeats and the liveness
  // timer.
  void tick();
  // The `!stats` JSON snapshot: epoch, live round/phase, the per-worker
  // liveness table and (when a sink is attached) the metrics registry.
  std::string stats_json();
  // Dispatch one control frame from connection `peer` (worker side:
  // server->worker notices; server side: !pong echoes).
  void handle_control_locked(int peer, Frame& f);
  // Control frame to every live registered worker (never waits).
  void broadcast_locked(const std::string& tag, ByteBuffer&& payload);
  // Fail-stop `peer`. With `expect` set, only if that is still peer's
  // current connection — a retired incarnation failing must not kill the
  // fresh one. The server queues the !death fan-out for the next tick.
  void mark_dead_locked(int peer, const Conn* expect = nullptr);
  // Accepted a hello for an id whose previous connection died: retire
  // the old conn, install the new one under a bumped epoch, send the
  // !rejoin grant.
  void grant_rejoin_locked(int id, const ConnPtr& c);
  // !epoch payload for the current state.
  ByteBuffer encode_epoch_locked() const;

  const int local_;  // kServerId for the server endpoint, else worker id
  const std::size_t n_workers_;
  const Options opts_;
  std::uint16_t port_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point rendezvous_deadline_;

  mutable std::mutex mu_;
  std::condition_variable cv_;     // mailbox / liveness / rendezvous events
  std::condition_variable space_cv_;  // a send queue freed a slot or died
  std::vector<bool> alive_;        // index 0 = server
  Mailbox mailbox_;                // the local node's mailbox
  std::vector<std::uint32_t> flow_seq_;  // per destination, trace flow ids
  LinkTotals totals_[3];
  std::uint64_t ingress_window_ = 0;  // the local node's open window
  std::uint64_t ingress_max_ = 0;
  std::atomic<bool> closing_{false};

  // Control-plane state, all under mu_.
  std::uint64_t epoch_ = 0;          // bumped on every membership change
  bool epoch_dirty_ = false;         // server: the pump should send !epoch
  std::vector<int> pending_deaths_;  // server: queued !death notices
  bool hello_acked_ = false;         // worker: first !epoch received
  bool rejoin_granted_ = false;      // worker: !rejoin received
  std::vector<int> pending_grants_;  // server: grants not yet harvested
  std::vector<Admission> admissions_;  // worker: !admit notices
  std::optional<ByteBuffer> rejoin_state_;  // worker: !state payload
  LivenessTracker liveness_;         // server; advanced by the loop timer
  double last_ping_s_ = 0.0;         // server: last heartbeat broadcast
  std::uint64_t ping_seq_ = 0;
  std::uint64_t suspect_count_ = 0;  // suspect episodes (mirrors metric)
  std::uint64_t dial_retries_done_ = 0;  // worker: failed dial attempts
  std::uint64_t dial_retries_flushed_ = 0;  // already pushed to the sink

  // conns_[w] is the server's connection to worker w; a worker endpoint
  // uses conns_[0] for its single connection to the server. Under mu_.
  // A producer keeps its own reference while it waits for queue space,
  // so a conn replaced by a rejoin stays valid (and dead) until it lets
  // go.
  std::vector<ConnPtr> conns_;
  // Loop thread only: every open connection, introduced or not.
  std::vector<ConnPtr> open_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::once_flag close_once_;  // close() runs once; later calls wait it out
  std::thread loop_;
};

// One-shot live introspection: dial a serving TcpNetwork endpoint,
// send a `!stats` probe in place of the hello and return the JSON
// snapshot it answers with (see stats_json for the shape). Returns
// nullopt when the dial, the probe or the reply fails within
// `timeout_s`. Any client may call this at any time — the server's
// event loop answers it as one more connection, without touching
// membership.
std::optional<std::string> fetch_stats(const std::string& host,
                                       std::uint16_t port,
                                       double timeout_s = 5.0);

}  // namespace mdgan::dist
