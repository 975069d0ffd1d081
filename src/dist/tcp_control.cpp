// TcpNetwork's membership control plane — the '!'-tagged frames and
// the state they move (see "Liveness" and "Control plane" in
// tcp_network.hpp): membership epochs and the !death / !epoch fan-out,
// rejoin grants, the engine's !admit / !state calls, heartbeats and the
// liveness timer, and the !stats snapshot. The sockets, the event loop
// and the data plane live in tcp_network.cpp; every *_locked function
// here runs under mu_, on the event loop or on a caller's thread.
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/log.hpp"
#include "dist/tcp_network.hpp"

namespace mdgan::dist {

namespace {

const char* peer_state_name(PeerState s) {
  switch (s) {
    case PeerState::kUntracked:
      return "untracked";
    case PeerState::kAlive:
      return "alive";
    case PeerState::kSuspect:
      return "suspect";
    case PeerState::kDead:
      return "dead";
  }
  return "?";
}

}  // namespace

std::string TcpNetwork::stats_json() {
  obs::Sink* sink = nullptr;  // set_sink swaps it under mu_
  std::ostringstream os;
  os << "{\"kind\":\"stats\",\"node\":" << local_
     << ",\"n_workers\":" << n_workers_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sink = this->sink();
    os << ",\"epoch\":" << epoch_
       << ",\"round\":" << (sink != nullptr ? sink->live_round() : -1)
       << ",\"phase\":\""
       << (sink != nullptr ? sink->live_phase() : "unknown") << '"'
       << ",\"workers\":[";
    for (std::size_t w = 1; w <= n_workers_; ++w) {
      if (w > 1) os << ',';
      os << "{\"id\":" << w << ",\"alive\":"
         << (alive_[w] ? "true" : "false") << ",\"registered\":"
         << (conns_[w] != nullptr ? "true" : "false") << ",\"liveness\":\""
         << peer_state_name(liveness_.state(static_cast<int>(w))) << '"';
      const Conn* c = conns_[w].get();
      if (c != nullptr && c->rx.any) {
        os << ",\"last_rx_tag\":\"" << c->rx.tag
           << "\",\"last_rx_s\":" << c->rx.at_s
           << ",\"rx_frames\":" << c->rx.frames;
      }
      os << '}';
    }
    os << ']';
  }
  // The registry serializes itself (own mutex) — embed the exact same
  // snapshot shape the metrics JSONL stream uses, so the byte counters
  // a client reads here equal totals(LinkKind) at this instant.
  if (sink != nullptr) {
    os << ",\"metrics\":";
    sink->registry().write_snapshot_json(
        os, "stats", sink->live_round(),
        static_cast<double>(sink->tracer().now_ns()) / 1e9, elapsed_s());
  }
  os << '}';
  return os.str();
}

void TcpNetwork::tick() {
  const double now = elapsed_s();
  std::lock_guard<std::mutex> lock(mu_);
  // A dialer that never finishes its hello (or never reads its !stats
  // reply) is a connection state like any other: it times out here
  // instead of stalling anyone.
  for (auto& c : open_) {
    if (c->peer < 0 && c->fd >= 0 && now > c->hello_deadline_s) {
      MDGAN_LOG_WARN << "TcpNetwork: closing a connection that never "
                        "completed its hello";
      close_conn_locked(*c);
    }
  }
  if (local_ != kServerId) return;
  const LivenessConfig& cfg = liveness_.config();
  if (cfg.enabled()) {
    for (const auto& t : liveness_.advance(now)) {
      if (t.to == PeerState::kSuspect) {
        ++suspect_count_;
        obs_suspect(t.worker);
        MDGAN_LOG_WARN << "TcpNetwork: worker " << t.worker
                       << " silent past the suspect threshold ("
                       << cfg.suspect_after_s << "s); suspected, grace window "
                       << cfg.grace_s << "s";
      } else if (t.to == PeerState::kDead) {
        obs_grace_death(t.worker);
        MDGAN_LOG_WARN << "TcpNetwork: worker " << t.worker
                       << " silent past the grace window; declaring it dead";
        mark_dead_locked(t.worker);  // the normal eviction path
      }
    }
    if (now - last_ping_s_ >= cfg.heartbeat_interval_s) {
      last_ping_s_ = now;
      ByteBuffer ping;
      ping.write_pod<std::uint64_t>(ping_seq_++);
      ping.write_pod<double>(now);
      // Trace-clock stamp for offset estimation: the worker echoes this
      // and appends its own, and the pong handler pairs the two with the
      // RTT midpoint. -1 = no tracer attached here, nothing to align.
      obs::Tracer* tracer = obs_tracer();
      ping.write_pod<std::int64_t>(tracer != nullptr ? tracer->now_ns() : -1);
      broadcast_locked(kTagPing, std::move(ping));
    }
  }
  // The control pump: queued death notices and epoch bumps go out as
  // !death / !epoch broadcasts, so survivors map a victim onto
  // fail-stop without ever having exchanged a byte with it.
  for (int dead : pending_deaths_) {
    ByteBuffer p;
    p.write_pod<std::uint32_t>(static_cast<std::uint32_t>(dead));
    p.write_pod<std::uint64_t>(epoch_);
    broadcast_locked(kTagDeath, std::move(p));
  }
  if (epoch_dirty_) broadcast_locked(kTagEpoch, encode_epoch_locked());
  pending_deaths_.clear();
  epoch_dirty_ = false;
}

void TcpNetwork::handle_control_locked(int peer, Frame& f) {
  // Control payloads come off the wire; a malformed one from a confused
  // peer is dropped, never fatal — data-plane correctness must not
  // depend on any single control frame.
  try {
    ByteBuffer& payload = f.payload;
    if (local_ == kServerId) {
      // Server side: the only worker->server control frame is the
      // heartbeat echo. dispatch already fed the tracker; here we only
      // recover the RTT. A pong with a garbage payload or a mismatched
      // source is dropped like any malformed control frame.
      if (f.tag == kTagPong && f.src == peer) {
        payload.read_pod<std::uint64_t>();  // sequence, unused
        const double sent_s = payload.read_pod<double>();
        const double rtt = elapsed_s() - sent_s;
        if (rtt >= 0.0) obs_heartbeat_rtt(rtt);
        // Extended echo: our trace-clock stamp came back with the
        // worker's own appended. The worker's stamp was taken roughly
        // mid-flight, so server_send + RTT/2 estimates the same instant
        // on OUR clock — the difference is the per-worker trace-clock
        // offset (NTP style; the tracer keeps the minimum-RTT sample).
        obs::Tracer* tracer = obs_tracer();
        if (tracer != nullptr && rtt >= 0.0 && payload.remaining() >= 16) {
          const auto sent_ns = payload.read_pod<std::int64_t>();
          const auto worker_ns = payload.read_pod<std::int64_t>();
          if (sent_ns >= 0 && worker_ns >= 0) {
            const auto rtt_ns = static_cast<std::int64_t>(rtt * 1e9);
            tracer->offer_clock_offset(
                peer, sent_ns + rtt_ns / 2 - worker_ns, rtt);
          }
        }
      }
      return;
    }
    if (f.tag == kTagPing) {
      // Echo the payload verbatim (appending our trace-clock stamp when
      // the ping carries the server's); the server computes the RTT.
      ByteBuffer echo;
      echo.append_raw(f.payload.data(), f.payload.size());
      if (f.payload.size() >= 24) {  // u64 + f64 + i64: stamped ping
        obs::Tracer* tracer = obs_tracer();
        echo.write_pod<std::int64_t>(tracer != nullptr ? tracer->now_ns()
                                                       : -1);
      }
      push_locked(*conns_[kServerId],
                  make_frame(local_, kServerId, kTagPong,
                             SharedBuf::wrap(std::move(echo))));
    } else if (f.tag == kTagState) {
      MDGAN_LOG_INFO << "TcpNetwork: rejoin state received ("
                     << f.payload.size() << " bytes)";
      rejoin_state_ = std::move(f.payload);
    } else if (f.tag == kTagAdmit) {
      const auto w = payload.read_pod<std::uint32_t>();
      const auto round = payload.read_pod<std::int64_t>();
      const auto epoch = payload.read_pod<std::uint64_t>();
      if (w < 1 || w > n_workers_) return;
      admissions_.push_back(
          {static_cast<int>(w), static_cast<std::int64_t>(round)});
      if (static_cast<int>(w) != local_) alive_[w] = true;
      // Publish the post-max epoch, never the raw broadcast value: an
      // !admit overtaken by a newer !epoch/!death must not regress the
      // membership_epoch gauge.
      epoch_ = std::max(epoch_, epoch);
      obs_membership_epoch(epoch_);
      MDGAN_LOG_INFO << "TcpNetwork: worker " << w
                     << " re-admitted at round " << round << " (epoch "
                     << epoch << ")";
    } else if (f.tag == kTagDeath) {
      const auto w = payload.read_pod<std::uint32_t>();
      const auto epoch = payload.read_pod<std::uint64_t>();
      if (w < 1 || w > n_workers_ || static_cast<int>(w) == local_) return;
      const bool fresh = alive_[w];
      alive_[w] = false;
      epoch_ = std::max(epoch_, epoch);
      if (fresh) {
        obs_peer_death(static_cast<int>(w), elapsed_s());
        obs_membership_epoch(epoch_);
        if (!closing_.load()) {
          MDGAN_LOG_WARN << "TcpNetwork: death notice for worker " << w
                         << " (epoch " << epoch
                         << "); mapping peer to fail-stop";
        }
      }
    } else if (f.tag == kTagEpoch) {
      const auto epoch = payload.read_pod<std::uint64_t>();
      const auto n = payload.read_pod<std::uint32_t>();
      if (n != n_workers_) return;
      if (epoch >= epoch_) {
        epoch_ = epoch;
        for (std::size_t w = 1; w <= n_workers_; ++w) {
          const bool live = payload.read_pod<std::uint8_t>() != 0;
          // The bitmap covers worker slots only, and never overrides
          // what this endpoint knows about itself.
          if (static_cast<int>(w) == local_) continue;
          alive_[w] = live;
        }
      }
      hello_acked_ = true;
      obs_membership_epoch(epoch_);
    } else if (f.tag == kTagRejoin) {
      const auto epoch = payload.read_pod<std::uint64_t>();
      epoch_ = std::max(epoch_, epoch);
      rejoin_granted_ = true;
      obs_rejoin(local_, epoch);
      obs_membership_epoch(epoch_);
      MDGAN_LOG_INFO << "TcpNetwork: rejoin granted under epoch " << epoch;
    }
    // Unknown '!' tags are ignored: forward compatibility.
    cv_.notify_all();
  } catch (const std::exception&) {
  }
}

ByteBuffer TcpNetwork::encode_epoch_locked() const {
  ByteBuffer buf;
  buf.write_pod<std::uint64_t>(epoch_);
  buf.write_pod<std::uint32_t>(static_cast<std::uint32_t>(n_workers_));
  for (std::size_t w = 1; w <= n_workers_; ++w) {
    buf.write_pod<std::uint8_t>(alive_[w] ? 1 : 0);
  }
  return buf;
}

void TcpNetwork::grant_rejoin_locked(int id, const ConnPtr& c) {
  const auto wi = static_cast<std::size_t>(id);
  // Retire the dead incarnation: frames still queued to it drop (the
  // peer restarted; its new life must not replay them) and the loop
  // reaps its socket. A producer still holding it fails on the dead
  // flag.
  fail_conn_locked(*conns_[wi]);
  conns_[wi] = c;
  alive_[wi] = true;
  liveness_.track(id, elapsed_s());
  pending_grants_.push_back(id);  // the engine admits at a boundary
  const std::uint64_t epoch = ++epoch_;
  obs_rejoin(id, epoch);
  obs_membership_epoch(epoch);
  MDGAN_LOG_INFO << "TcpNetwork: granting rejoin to worker " << id
                 << " (epoch " << epoch << ")";
  ByteBuffer grant;
  grant.write_pod<std::uint64_t>(epoch);
  push_locked(*c, make_frame(kServerId, id, kTagRejoin,
                             SharedBuf::wrap(std::move(grant))));
  push_locked(*c, make_frame(kServerId, id, kTagEpoch,
                             SharedBuf::wrap(encode_epoch_locked())));
  epoch_dirty_ = true;  // the next tick tells everyone else
  cv_.notify_all();
}

void TcpNetwork::broadcast_locked(const std::string& tag,
                                  ByteBuffer&& payload) {
  const SharedBuf body = SharedBuf::wrap(std::move(payload));
  for (std::size_t w = 1; w <= n_workers_; ++w) {
    if (alive_[w] && conns_[w] != nullptr) {
      push_locked(*conns_[w],
                  make_frame(kServerId, static_cast<int>(w), tag, body));
    }
  }
}

void TcpNetwork::mark_dead_locked(int peer, const Conn* expect) {
  const auto pi = static_cast<std::size_t>(peer);
  Conn* conn = conns_[pi].get();
  if (expect != nullptr && conn != expect) {
    return;  // a retired incarnation failed; the live one is fine
  }
  if (!alive_[pi]) return;
  alive_[pi] = false;
  liveness_.mark_dead(peer);
  const std::uint64_t epoch = ++epoch_;
  ConnRxStats rx;
  if (conn != nullptr) {
    rx = conn->rx;
    fail_conn_locked(*conn);
  }
  obs_peer_death(peer, elapsed_s());
  obs_membership_epoch(epoch);
  if (local_ == kServerId) {
    pending_deaths_.push_back(peer);  // fanned out by the next tick
    epoch_dirty_ = true;
  }
  if (!closing_.load()) {
    // Drop diagnostics: who died, how far ITS OWN stream got
    // (per-connection, not the endpoint-global last arrival), and what
    // is still parked locally.
    detail::LogLine line(LogLevel::kWarn);
    line << "TcpNetwork: node " << peer
         << " disconnected, mapping to fail-stop (epoch " << epoch
         << "); last frame on its connection ";
    if (rx.any) {
      line << "(#" << rx.frames << ", sender=" << rx.src << ", tag=" << rx.tag
           << ", t=" << rx.at_s << "s)";
    } else {
      line << "(none)";
    }
    line << "; " << mailbox_.size() << " message(s) / " << mailbox_.bytes()
         << " payload byte(s) in flight in the local mailbox";
  }
  cv_.notify_all();
}

void TcpNetwork::crash(int worker) {
  check_node(worker);
  if (worker == kServerId) {
    throw std::invalid_argument("TcpNetwork: the server cannot crash");
  }
  // Server endpoint: actively sever the connection (the worker sees EOF
  // and fail-stops). Worker endpoint: record the death locally so sends
  // to the victim are dropped.
  std::lock_guard<std::mutex> lock(mu_);
  mark_dead_locked(worker);
}

std::uint64_t TcpNetwork::membership_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

bool TcpNetwork::rejoin_granted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejoin_granted_;
}

bool TcpNetwork::wait_membership_epoch(std::uint64_t at_least,
                                       double timeout_s) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_until(lock, deadline_in(timeout_s),
                 [&] { return closing_.load() || epoch_ >= at_least; });
  return epoch_ >= at_least;
}

std::vector<int> TcpNetwork::take_rejoin_grants() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(pending_grants_, {});
}

std::vector<Transport::Admission> TcpNetwork::take_admissions() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(admissions_, {});
}

void TcpNetwork::announce_admission(int worker, std::int64_t round) {
  check_node(worker);
  if (local_ != kServerId) return;  // only the server admits
  // The caller is the ENGINE thread, and `round` is strictly in the
  // future of the round it is currently processing: writing the !admit
  // here — before that round's data frames go out on the same
  // connections — is what pins the admission round across roles. A
  // survivor must consume its round-R data frames before it can reach
  // its round-R+1 membership boundary, so per-connection FIFO puts the
  // !admit in its hands no later than that boundary, i.e. at or before
  // the admission round itself. The loop's timer-driven control pump
  // gives no such guarantee, which is why this broadcast is written here.
  std::lock_guard<std::mutex> lock(mu_);
  ByteBuffer p;
  p.write_pod<std::uint32_t>(static_cast<std::uint32_t>(worker));
  p.write_pod<std::int64_t>(round);
  p.write_pod<std::uint64_t>(epoch_);
  broadcast_locked(kTagAdmit, std::move(p));
  MDGAN_LOG_INFO << "TcpNetwork: announced admission of worker " << worker
                 << " at round " << round << " (epoch " << epoch_ << ")";
}

void TcpNetwork::ship_rejoin_state(int worker, ByteBuffer&& state) {
  check_node(worker);
  if (local_ != kServerId) return;  // only the server admits
  // Also engine-thread: the rejoiner receives !state before the
  // admission round's data frames on its (fresh) connection, so it can
  // adopt the transferred generator before the first batch lands.
  const std::size_t state_bytes = state.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto wi = static_cast<std::size_t>(worker);
    if (alive_[wi] && conns_[wi] != nullptr) {
      push_locked(*conns_[wi], make_frame(kServerId, worker, kTagState,
                                          SharedBuf::wrap(std::move(state))));
    }
  }
  obs_rejoin_admitted(worker, static_cast<std::int64_t>(state_bytes));
  MDGAN_LOG_INFO << "TcpNetwork: shipped rejoin state to worker " << worker
                 << " (" << state_bytes << " bytes)";
}

bool TcpNetwork::await_alive(int node, double timeout_s) {
  check_node(node);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_until(lock, deadline_in(timeout_s), [&] {
    return closing_.load() || alive_[static_cast<std::size_t>(node)];
  });
  return alive_[static_cast<std::size_t>(node)];
}

std::optional<ByteBuffer> TcpNetwork::wait_rejoin_state(double timeout_s) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_until(lock, deadline_in(timeout_s), [&] {
    return closing_.load() || rejoin_state_.has_value();
  });
  return std::exchange(rejoin_state_, std::nullopt);
}

bool TcpNetwork::is_suspect(int worker) const {
  check_node(worker);
  std::lock_guard<std::mutex> lock(mu_);
  return liveness_.state(worker) == PeerState::kSuspect;
}

std::uint64_t TcpNetwork::suspect_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suspect_count_;
}

std::optional<std::string> fetch_stats(const std::string& host,
                                       std::uint16_t port,
                                       double timeout_s) {
  addrinfo hints{};
  hints.ai_family = AF_INET;  // the server listens on IPv4
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &res) != 0) {
    return std::nullopt;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  const bool up =
      fd >= 0 && ::connect(fd, res->ai_addr, res->ai_addrlen) == 0;
  ::freeaddrinfo(res);
  std::optional<std::string> out;
  if (up) {
    timeval tv{};  // bounds the reply wait (read_frame sees a timeout)
    tv.tv_sec = static_cast<long>(timeout_s);
    tv.tv_usec = static_cast<long>((timeout_s - tv.tv_sec) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const auto wire = encode_frame(kServerId, kServerId, kTagStats, {});
    Frame reply;
    if (::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(wire.size()) &&
        read_frame(fd, reply) && reply.tag == kTagStats) {
      out = std::string(reinterpret_cast<const char*>(reply.payload.data()),
                        reply.payload.size());
    }
  }
  if (fd >= 0) ::close(fd);
  return out;
}

}  // namespace mdgan::dist
