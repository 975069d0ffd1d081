#include "dist/tcp_network.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/log.hpp"

namespace mdgan::dist {

namespace {

// A connection that has not introduced itself by then is closed.
constexpr double kHelloTimeoutS = 5.0;
// close(): how long already-queued frames get to reach the wire.
constexpr double kLingerS = 5.0;
// Period of the loop's timer (control pump, hello deadlines), ms.
constexpr int kTickMs = 200;
// iovecs per sendmsg; a frame with more segments goes out in pieces.
constexpr std::size_t kMaxIov = 64;

// epoll_event.data.ptr tags of the two fds that are not connections.
char wake_tag;
char listen_tag;

}  // namespace

TcpNetwork::TcpNetwork(int local, std::size_t n_workers, Options opts)
    : local_(local),
      n_workers_(n_workers),
      opts_(opts),
      liveness_(n_workers, opts.liveness) {
  if (n_workers_ == 0) {
    throw std::invalid_argument("TcpNetwork: need at least one worker");
  }
  alive_.assign(n_workers_ + 1, true);
  flow_seq_.assign(n_workers_ + 1, 0);
  conns_.resize(n_workers_ + 1);
  start_ = std::chrono::steady_clock::now();
  rendezvous_deadline_ = deadline_in(opts_.rendezvous_timeout_s);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;  // edge-triggered: no need to drain it
  ev.data.ptr = &wake_tag;
  if (epoll_fd_ < 0 || wake_fd_ < 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    throw std::runtime_error("TcpNetwork: epoll setup failed");
  }
}

std::unique_ptr<TcpNetwork> TcpNetwork::serve(std::uint16_t port,
                                              std::size_t n_workers,
                                              Options opts) {
  auto net = std::unique_ptr<TcpNetwork>(
      new TcpNetwork(kServerId, n_workers, opts));

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("TcpNetwork: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("TcpNetwork: bind() failed: " +
                             std::string(std::strerror(errno)));
  }
  if (::listen(fd, static_cast<int>(n_workers) + 8) != 0) {
    ::close(fd);
    throw std::runtime_error("TcpNetwork: listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  net->port_ = ntohs(addr.sin_port);
  net->listen_fd_ = fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &listen_tag;
  ::epoll_ctl(net->epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  net->loop_ = std::thread([raw = net.get()] { raw->run_loop(); });
  return net;
}

std::unique_ptr<TcpNetwork> TcpNetwork::connect(const std::string& host,
                                                std::uint16_t port,
                                                int worker_id,
                                                std::size_t n_workers,
                                                Options opts) {
  if (worker_id < 1 || worker_id > static_cast<int>(n_workers)) {
    throw std::invalid_argument("TcpNetwork: worker id " +
                                std::to_string(worker_id) +
                                " outside [1, " + std::to_string(n_workers) +
                                "]");
  }
  auto net =
      std::unique_ptr<TcpNetwork>(new TcpNetwork(worker_id, n_workers, opts));
  net->port_ = port;

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &res) != 0 ||
      res == nullptr) {
    throw std::runtime_error("TcpNetwork: cannot resolve host " + host);
  }

  // The server may not be up yet (processes race at launch, rejoiners
  // dial into churn): retry the dial with bounded exponential backoff
  // plus deterministic per-worker jitter, giving up at whichever trips
  // first — the retry budget or the rendezvous deadline.
  constexpr double kDialBackoffCapMs = 2000.0;
  int fd = -1;
  int attempt = 0;
  // Small LCG seeded from the worker id: reproducible jitter that still
  // decorrelates a thundering herd of rejoiners.
  std::uint64_t jitter_state = 0x9e3779b97f4a7c15ull ^
                               (static_cast<std::uint64_t>(worker_id) *
                                0xd1342543de82ef95ull);
  while (fd < 0) {
    fd = ::socket(res->ai_family, res->ai_socktype | SOCK_CLOEXEC,
                  res->ai_protocol);
    if (fd >= 0 &&
        ::connect(fd, res->ai_addr, res->ai_addrlen) == 0) {
      break;
    }
    if (fd >= 0) ::close(fd);
    fd = -1;
    ++net->dial_retries_done_;
    if (attempt >= opts.dial_retries) {
      ::freeaddrinfo(res);
      throw std::runtime_error(
          "TcpNetwork: cannot reach " + host + ":" + std::to_string(port) +
          " after " + std::to_string(attempt + 1) +
          " dial attempts (dial_retries exhausted)");
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= net->rendezvous_deadline_) {
      ::freeaddrinfo(res);
      throw std::runtime_error("TcpNetwork: cannot reach " + host + ":" +
                               std::to_string(port) + " before the "
                               "rendezvous deadline");
    }
    double backoff_ms = std::min(
        opts.dial_backoff_ms * std::pow(2.0, attempt), kDialBackoffCapMs);
    jitter_state = jitter_state * 6364136223846793005ull +
                   1442695040888963407ull;
    // Jitter in [0, backoff/2), never past the deadline.
    backoff_ms *= 1.0 + 0.5 * (static_cast<double>(jitter_state >> 40) /
                               16777216.0);
    backoff_ms = std::min(backoff_ms, std::chrono::duration<double, std::milli>(
                                          net->rendezvous_deadline_ - now)
                                          .count());
    if (backoff_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
    ++attempt;
  }
  ::freeaddrinfo(res);

  // Introduce ourselves; the server maps this connection to our id. The
  // hello is the connection's first queued frame.
  ByteBuffer hello;
  hello.write_pod<std::uint32_t>(static_cast<std::uint32_t>(worker_id));
  hello.write_pod<std::uint64_t>(n_workers);
  {
    std::lock_guard<std::mutex> lock(net->mu_);
    net->conns_[kServerId] = net->add_conn(fd, kServerId);
    net->push_locked(*net->conns_[kServerId],
                     make_frame(worker_id, kServerId, kTagHello,
                                SharedBuf::wrap(std::move(hello))));
  }
  net->loop_ = std::thread([raw = net.get()] { raw->run_loop(); });
  return net;
}

TcpNetwork::~TcpNetwork() { close(); }

void TcpNetwork::close() {
  std::call_once(close_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closing_.store(true);
    }
    cv_.notify_all();
    const std::uint64_t one = 1;  // wake the loop so it starts lingering
    if (::write(wake_fd_, &one, sizeof(one)) < 0) {
      // Only a saturated counter fails, and then the loop is awake anyway.
    }
    if (loop_.joinable()) loop_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    ::close(epoll_fd_);
    ::close(wake_fd_);
  });
}

TcpNetwork::ConnPtr TcpNetwork::add_conn(int fd, int peer) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto c = std::make_shared<Conn>();
  c->fd = fd;
  c->peer = peer;
  c->hello_deadline_s = elapsed_s() + kHelloTimeoutS;
  c->events = EPOLLIN;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = c.get();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  open_.push_back(c);
  return c;
}

void TcpNetwork::run_loop() {
  // The timer: the control pump, heartbeats and hello deadlines run at
  // least every kTickMs, and at the heartbeat interval when that is
  // shorter.
  int tick_ms = kTickMs;
  if (local_ == kServerId && liveness_.config().enabled()) {
    tick_ms = std::clamp(
        static_cast<int>(liveness_.config().heartbeat_interval_s * 1000.0), 1,
        kTickMs);
  }
  double linger_until = -1.0, next_tick_s = 0.0;
  epoll_event events[64];
  try {
    for (;;) {
      if (closing_.load()) {
        std::lock_guard<std::mutex> lock(mu_);
        if (linger_until < 0.0) {
          linger_until = elapsed_s() + kLingerS;
          if (listen_fd_ >= 0) ::close(listen_fd_);
          listen_fd_ = -1;
        }
        const bool flushed =
            std::all_of(open_.begin(), open_.end(),
                        [](const ConnPtr& c) { return c->queue.empty(); });
        if (flushed || elapsed_s() >= linger_until) break;
      }
      const double now = elapsed_s();
      if (!closing_.load() && now >= next_tick_s) {
        tick();
        next_tick_s = now + tick_ms / 1000.0;
      }
      const int n = ::epoll_wait(
          epoll_fd_, events, 64,
          closing_.load()
              ? 20
              : static_cast<int>((next_tick_s - now) * 1000.0) + 1);
      for (int i = 0; i < n; ++i) {
        void* tag = events[i].data.ptr;
        if (tag == &wake_tag) continue;  // closing_ is checked above
        if (tag == &listen_tag) {
          int fd = -1;
          while ((fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC)) >= 0) {
            add_conn(fd, -1);
          }
          continue;
        }
        Conn& c = *static_cast<Conn*>(tag);
        if (c.fd < 0) continue;  // closed earlier in this batch
        const std::uint32_t ev = events[i].events;
        if (ev & EPOLLOUT) {
          std::lock_guard<std::mutex> lock(mu_);
          if (!flush_locked(c)) fail_conn_locked(c);
          if (c.close_when_flushed && c.queue.empty()) {
            close_conn_locked(c);
          } else {
            set_interest_locked(c);
          }
        }
        if (c.fd >= 0 && (ev & (EPOLLIN | EPOLLHUP | EPOLLERR))) {
          on_readable(c, (ev & (EPOLLHUP | EPOLLERR)) != 0);
        }
      }
      open_.erase(std::remove_if(open_.begin(), open_.end(),
                                 [](const ConnPtr& c) { return c->fd < 0; }),
                  open_.end());
    }
  } catch (const std::exception& e) {
    MDGAN_LOG_ERROR << "TcpNetwork: event loop failed (" << e.what()
                    << "); closing the endpoint";
  }
  // Sever everything; callers blocked on a receive or a full queue return.
  std::lock_guard<std::mutex> lock(mu_);
  closing_.store(true);
  for (auto& c : open_) {
    c->dead = true;
    c->queue.clear();
    if (c->fd >= 0) ::close(c->fd);
    c->fd = -1;
  }
  cv_.notify_all();
  space_cv_.notify_all();
}

void TcpNetwork::on_readable(Conn& c, bool hangup) {
  for (;;) {
    Frame f;
    const FrameReader::Status st = c.reader.read(
        c.fd, f, c.peer < 0 ? kMaxPreHelloBodyBytes : kMaxFrameBodyBytes);
    if (st == FrameReader::Status::kAgain) return;
    if (st == FrameReader::Status::kClosed) {
      std::lock_guard<std::mutex> lock(mu_);
      close_conn_locked(c);
      return;
    }
    // A hung-up source is read to its end even when paused: what it
    // sent before dying (a last feedback) is still delivered.
    const bool more = dispatch(c, f);
    if (c.fd < 0 || (!more && !hangup)) return;
  }
}

bool TcpNetwork::dispatch(Conn& c, Frame& f) {
  if (c.peer < 0) {
    if (!c.close_when_flushed) on_hello(c, f);
    return c.peer >= 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  c.rx = ConnRxStats{true, f.src, f.tag, c.rx.frames + 1, elapsed_s()};
  // Any frame is proof of life: clear suspicion (server side; the
  // tracker is inert on workers and when heartbeats are off).
  if (liveness_.heard_from(c.peer, elapsed_s())) {
    obs_reseat(c.peer);
    MDGAN_LOG_INFO << "TcpNetwork: worker " << c.peer
                   << " resumed inside the grace window; re-seated "
                      "(no epoch change)";
  }
  if (is_control_tag(f.tag)) {
    handle_control_locked(c.peer, f);
  } else if (local_ != kServerId) {
    if (f.dst == local_) {
      enqueue_local_locked(f.src, f.tag, std::move(f.payload), f.ctx.span);
    }
  } else if (f.src != c.peer) {
    // A worker may only speak as itself.
  } else if (f.dst == kServerId) {
    enqueue_local_locked(f.src, f.tag, std::move(f.payload), f.ctx.span);
  } else if (f.dst >= 1 && f.dst <= static_cast<int>(n_workers_) &&
             f.dst != c.peer) {
    // Relay W->W through the star. Charged on the logical
    // worker->worker link by payload size, exactly like the simulator
    // charges a direct send; the ORIGINAL sender's trace context rides
    // along so the merged trace draws one W->W arrow.
    const auto di = static_cast<std::size_t>(f.dst);
    Conn* dst = conns_[di].get();
    if (alive_[di] && dst != nullptr) {
      charge_locked(f.src, f.dst, f.tag, f.payload.size());
      push_locked(*dst, make_frame(f.src, f.dst, f.tag,
                                   SharedBuf::wrap(std::move(f.payload)),
                                   f.ctx));
      if (!dst->dead && dst->queue.size() >= opts_.send_queue_depth) {
        // The loop must not wait: stop reading this source until the
        // destination drains below its bound.
        c.stalled_on = f.dst;
        set_interest_locked(c);
        return false;
      }
    }
  }
  return true;
}

void TcpNetwork::on_hello(Conn& c, Frame& f) {
  // A `!stats` probe in hello position is not a join: answer with one
  // snapshot frame and close once it is written.
  if (f.tag == kTagStats) {
    const std::string snap = stats_json();
    ByteBuffer payload;
    payload.append_raw(reinterpret_cast<const std::uint8_t*>(snap.data()),
                       snap.size());
    std::lock_guard<std::mutex> lock(mu_);
    c.close_when_flushed = true;
    push_locked(c, make_frame(local_, local_, kTagStats,
                              SharedBuf::wrap(std::move(payload))));
    if (c.queue.empty()) close_conn_locked(c);
    return;
  }
  int id = -1;
  if (f.tag == kTagHello && f.payload.size() >= 12) {
    const auto claimed = f.payload.read_pod<std::uint32_t>();
    const auto n = f.payload.read_pod<std::uint64_t>();
    if (claimed >= 1 && claimed <= n_workers_ && n == n_workers_ &&
        f.src == static_cast<int>(claimed)) {
      id = static_cast<int>(claimed);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (id <= 0) {
    MDGAN_LOG_WARN << "TcpNetwork: rejecting connection with bad hello";
    close_conn_locked(c);
    return;
  }
  const auto wi = static_cast<std::size_t>(id);
  if (conns_[wi] != nullptr && alive_[wi]) {
    MDGAN_LOG_WARN << "TcpNetwork: rejecting duplicate hello for live "
                      "worker " << id;
    close_conn_locked(c);
    return;
  }
  c.peer = id;
  if (conns_[wi] != nullptr) {
    grant_rejoin_locked(id, c.shared_from_this());  // its conn died
    return;
  }
  conns_[wi] = c.shared_from_this();
  liveness_.track(id, elapsed_s());
  // Hello ack: current epoch + live bitmap, so a late joiner learns of
  // any deaths that predate it.
  push_locked(c, make_frame(kServerId, id, kTagEpoch,
                            SharedBuf::wrap(encode_epoch_locked())));
  cv_.notify_all();
}

// --- the write side ------------------------------------------------------

TcpNetwork::OutFrame TcpNetwork::make_frame(int src, int dst,
                                            const std::string& tag,
                                            SharedBuf body,
                                            const TraceCtx& ctx) {
  OutFrame f;
  f.head = encode_frame_head(src, dst, tag, body.size(), ctx);
  f.body = std::move(body);
  return f;
}

bool TcpNetwork::push_locked(Conn& c, OutFrame&& f) {
  if (c.dead || c.fd < 0) return false;
  c.queue.push_back(std::move(f));
  // Only a frame at the head goes straight out; behind others it waits
  // its turn, which keeps the connection FIFO.
  if (c.queue.size() == 1 && !flush_locked(c)) {
    fail_conn_locked(c);
    return false;
  }
  obs_queue_depth(c.queue.size());
  set_interest_locked(c);
  return true;
}

bool TcpNetwork::flush_locked(Conn& c) {
  while (!c.queue.empty()) {
    OutFrame& f = c.queue.front();
    // Head + payload segments as one gathered write, resuming after
    // whatever an earlier partial write already put on the wire.
    iovec iov[kMaxIov];
    std::size_t n = 0, skip = f.sent;
    auto add = [&](const std::uint8_t* p, std::size_t len) {
      if (skip >= len) {
        skip -= len;
      } else if (n < kMaxIov) {
        iov[n++] = {const_cast<std::uint8_t*>(p + skip), len - skip};
        skip = 0;
      }
    };
    add(f.head.data(), f.head.size());
    for (const auto& seg : f.body.segments()) add(seg->data(), seg->size());
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    const ssize_t r = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (r < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;  // else: peer gone
    }
    f.sent += static_cast<std::size_t>(r);
    if (f.sent < f.head.size() + f.body.size()) return true;  // socket full
    c.queue.pop_front();
    if (c.queue.size() + 1 == opts_.send_queue_depth) release_locked(c);
  }
  return true;
}

void TcpNetwork::release_locked(const Conn& c) {
  space_cv_.notify_all();
  if (c.peer < 0) return;
  for (auto& s : conns_) {
    if (s != nullptr && s->stalled_on == c.peer) {
      s->stalled_on = -1;
      set_interest_locked(*s);
    }
  }
}

void TcpNetwork::set_interest_locked(Conn& c) {
  if (c.fd < 0 || c.dead) return;
  std::uint32_t want = c.queue.empty() ? 0u : std::uint32_t{EPOLLOUT};
  if (c.stalled_on < 0 && !c.close_when_flushed) want |= EPOLLIN;
  if (want == c.events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = &c;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  c.events = want;
}

void TcpNetwork::fail_conn_locked(Conn& c) {
  if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);  // the loop reaps it
  if (c.dead) return;
  c.dead = true;
  // Whatever is still queued will never reach the wire. Count it into
  // the flight recorder (the post-mortem's "what was lost on the epoch
  // bump").
  std::uint64_t frames = 0, bytes = 0;
  for (const auto& q : c.queue) {
    ++frames;
    bytes += q.head.size() + q.body.size();
  }
  c.queue.clear();
  if (frames > 0 && c.peer >= 0) {
    obs_writer_drop(c.peer, frames, bytes);
    if (!closing_.load()) {
      MDGAN_LOG_WARN << "TcpNetwork: dropped " << frames
                     << " queued frame(s) (" << bytes
                     << " bytes) to dead peer " << c.peer;
    }
  }
  release_locked(c);
}

void TcpNetwork::close_conn_locked(Conn& c) {
  if (c.fd < 0) return;
  if (c.peer >= 0) mark_dead_locked(c.peer, &c);
  fail_conn_locked(c);
  ::close(c.fd);
  c.fd = -1;
}

void TcpNetwork::enqueue_local_locked(int src, const std::string& tag,
                                      ByteBuffer&& payload,
                                      std::uint64_t flow) {
  charge_locked(src, local_, tag, payload.size());
  ingress_window_ += payload.size();
  mailbox_.push(Message{src, tag, std::move(payload), elapsed_s(), flow});
  cv_.notify_all();
}

void TcpNetwork::charge_locked(int src, int dst, const std::string& tag,
                               std::size_t bytes) {
  const LinkKind kind = link_kind(src, dst);
  auto& t = totals_[static_cast<std::size_t>(kind)];
  t.bytes += bytes;
  t.messages += 1;
  obs_charge(kind, tag, bytes);
}

// --- the Transport surface -----------------------------------------------

bool TcpNetwork::wait_ready() {
  std::unique_lock<std::mutex> lock(mu_);
  if (local_ != kServerId) {
    // Worker: ready once the server's !epoch hello-ack lands. On a
    // rejoining endpoint the !rejoin grant precedes the ack on the same
    // ordered connection, so readiness implies the grant was consumed.
    cv_.wait_until(lock, rendezvous_deadline_, [&] {
      return closing_.load() || !alive_[kServerId] || hello_acked_;
    });
    return hello_acked_ && !closing_.load();
  }
  const auto all_registered = [&] {
    return std::all_of(conns_.begin() + 1, conns_.end(),
                       [](const ConnPtr& c) { return c != nullptr; });
  };
  cv_.wait_until(lock, rendezvous_deadline_,
                 [&] { return closing_.load() || all_registered(); });
  // Tearing down is not readiness, even if every worker had registered:
  // the caller must not proceed into send() on a closing endpoint.
  return !closing_.load() && all_registered();
}

void TcpNetwork::check_node(int node) const {
  if (node < 0 || node > static_cast<int>(n_workers_)) {
    throw std::out_of_range("TcpNetwork: node id " + std::to_string(node) +
                            " outside [0, " + std::to_string(n_workers_) +
                            "]");
  }
}

void TcpNetwork::check_local(int node, const char* what) const {
  check_node(node);
  if (node != local_) {
    throw std::logic_error(std::string("TcpNetwork: ") + what +
                           " addresses node " + std::to_string(node) +
                           ", but this endpoint is node " +
                           std::to_string(local_));
  }
}

std::chrono::steady_clock::time_point TcpNetwork::deadline_in(
    double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

double TcpNetwork::elapsed_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void TcpNetwork::begin_iteration(std::int64_t /*iter*/) {
  std::lock_guard<std::mutex> lock(mu_);
  ingress_max_ = std::max(ingress_max_, ingress_window_);
  ingress_window_ = 0;
}

void TcpNetwork::send(int from, int to, const std::string& tag,
                      ByteBuffer&& payload) {
  send(from, to, tag, SharedBuf::wrap(std::move(payload)));
}

void TcpNetwork::send(int from, int to, const std::string& tag,
                      SharedBuf&& payload) {
  check_node(to);
  check_local(from, "send(from)");
  if (to == local_) {
    throw std::logic_error("TcpNetwork: send to self");
  }
  if (is_control_tag(tag)) {
    throw std::invalid_argument("TcpNetwork: '!' tags are reserved for "
                                "transport control frames");
  }

  const auto ti = static_cast<std::size_t>(to);
  std::unique_lock<std::mutex> lock(mu_);
  if (local_ == kServerId) {
    // Wait out the rendezvous if this worker has not dialed in yet.
    const bool up = cv_.wait_until(lock, rendezvous_deadline_, [&] {
      return closing_.load() || conns_[ti] != nullptr || !alive_[ti];
    });
    if (closing_.load()) return;
    if (!alive_[ti]) return;  // fail-stop drop
    if (!up || conns_[ti] == nullptr) {
      throw std::runtime_error("TcpNetwork: worker " + std::to_string(to) +
                               " never joined the rendezvous");
    }
  } else if (!alive_[kServerId] || !alive_[ti]) {
    return;  // fail-stop: a dead endpoint moves no bytes
  }
  // Star topology: a worker's every frame goes via the server.
  const ConnPtr conn = conns_[local_ == kServerId ? ti : kServerId];
  if (conn == nullptr) return;
  // Refcount dividend: payload bytes whose segment is shared with
  // another recipient's frame were serialized once, not per worker.
  obs_broadcast_saved(payload.shared_bytes());
  const std::size_t n_bytes = payload.size();  // the move below empties it
  obs::Tracer* tracer = obs_tracer();
  const std::int64_t wall_t0 = tracer != nullptr ? tracer->now_ns() : 0;
  const double sim_t0 = tracer != nullptr ? elapsed_s() : -1.0;
  // Stamp the frame with this send's causal context even when no tracer
  // is attached: the receiver may be tracing, and the stamp is what its
  // recv:<tag> span carries. flow_seq is assigned under mu_, so program
  // order on one link is sequence order (same rule as the simulator).
  TraceCtx ctx;
  ctx.node = static_cast<std::uint32_t>(local_);
  ctx.seq = ++flow_seq_[ti];
  ctx.span = flow_id(local_, to, ctx.seq);
  if (!conn->dead && conn->queue.size() >= opts_.send_queue_depth) {
    // Backpressure: block until the loop frees a slot or the connection
    // dies (a dead peer's queue is dropped, so this never outlives it).
    const auto t0 = std::chrono::steady_clock::now();
    space_cv_.wait(lock, [&] {
      return conn->dead || conn->queue.size() < opts_.send_queue_depth;
    });
    obs_queue_stall(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  if (!push_locked(*conn,
                   make_frame(local_, to, tag, std::move(payload), ctx))) {
    return;
  }
  charge_locked(local_, to, tag, n_bytes);
  lock.unlock();
  trace_send(tracer, local_, tag, wall_t0, sim_t0, elapsed_s(), n_bytes,
             ctx.span);
}

std::optional<Message> TcpNetwork::receive_tagged(int node,
                                                  const std::string& tag) {
  check_local(node, "receive_tagged");
  return receive(tag, /*block=*/true);
}

std::optional<Message> TcpNetwork::try_receive_tagged(int node,
                                                      const std::string& tag) {
  check_local(node, "try_receive_tagged");
  return receive(tag, /*block=*/false);
}

std::optional<Message> TcpNetwork::receive(const std::string& tag,
                                           bool block) {
  obs::Tracer* tracer = obs_tracer();
  const std::int64_t wall_t0 = tracer != nullptr ? tracer->now_ns() : 0;
  const auto deadline = deadline_in(opts_.receive_timeout_s);
  // True when nothing can ever arrive anymore: on a worker endpoint
  // every frame comes via the server; on the server, from the workers.
  auto peers_gone = [&] {
    if (local_ != kServerId) return !alive_[kServerId];
    return std::none_of(alive_.begin() + 1, alive_.end(),
                        [](bool a) { return a; });
  };
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t epoch0 = epoch_;
  bool timed_out = false;
  std::optional<Message> out;
  for (;;) {
    if (block && !alive_[static_cast<std::size_t>(local_)]) {
      return std::nullopt;
    }
    out = mailbox_.pop(tag);
    if (out || !block) break;
    if (closing_.load() || peers_gone()) return std::nullopt;
    // Membership moved while we were blocked: wake the caller with
    // nullopt so it can re-check which senders it still expects
    // (mid-round degrade) instead of waiting out the full timeout on a
    // peer that is already gone.
    if (epoch_ != epoch0) return std::nullopt;
    // The deadline expired on a previous wait, and the pop above just
    // re-ran: only a still-empty mailbox is a real timeout. A frame that
    // slipped in between the last pop and the deadline is returned, not
    // dropped on the floor.
    if (timed_out) return std::nullopt;
    // Block: the sender runs in another process. nullopt only on
    // timeout, an epoch bump, or a dead cluster.
    if (opts_.receive_timeout_s <= 0.0) {
      cv_.wait(lock);
    } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      timed_out = true;
    }
  }
  lock.unlock();
  if (out) trace_recv(tracer, local_, wall_t0, *out, elapsed_s());
  return out;
}

std::size_t TcpNetwork::pending(int node) const {
  check_local(node, "pending");
  std::lock_guard<std::mutex> lock(mu_);
  return mailbox_.size();
}

LinkTotals TcpNetwork::totals(LinkKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_[static_cast<std::size_t>(kind)];
}

std::uint64_t TcpNetwork::message_count(LinkKind kind) const {
  return totals(kind).messages;
}

std::uint64_t TcpNetwork::max_ingress_per_iteration(int node) const {
  check_node(node);
  // Each endpoint observes only its own ingress; remote nodes report 0.
  if (node != local_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return std::max(ingress_max_, ingress_window_);
}

double TcpNetwork::sim_time(int node) const {
  check_node(node);
  // Measured time: one wall clock for the whole endpoint.
  return elapsed_s();
}

void TcpNetwork::advance_time(int node, double seconds) {
  check_node(node);
  if (seconds < 0.0) {
    throw std::invalid_argument("TcpNetwork: cannot advance time backwards");
  }
  // No-op: local compute takes real time on a real cluster.
}

double TcpNetwork::max_sim_time() const { return elapsed_s(); }

bool TcpNetwork::is_alive(int node) const {
  check_node(node);
  std::lock_guard<std::mutex> lock(mu_);
  return alive_[static_cast<std::size_t>(node)];
}

std::vector<int> TcpNetwork::alive_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  out.reserve(n_workers_);
  for (std::size_t w = 1; w <= n_workers_; ++w) {
    if (alive_[w]) out.push_back(static_cast<int>(w));
  }
  return out;
}

std::size_t TcpNetwork::alive_worker_count() const {
  return alive_workers().size();
}

TcpNetwork::ConnRxStats TcpNetwork::last_rx_of(int peer) const {
  check_node(peer);
  std::lock_guard<std::mutex> lock(mu_);
  const auto* conn = conns_[static_cast<std::size_t>(peer)].get();
  return conn != nullptr ? conn->rx : ConnRxStats{};
}

std::uint64_t TcpNetwork::dial_retry_count() const {
  // Written only during connect(), before the loop thread exists.
  return dial_retries_done_;
}

void TcpNetwork::on_sink_attached() {
  // Dial retries necessarily predate the sink (they happen inside
  // connect()); flush the count once.
  const std::uint64_t unflushed = dial_retries_done_ - dial_retries_flushed_;
  obs_dial_retries(unflushed);
  dial_retries_flushed_ = dial_retries_done_;
  // Tell the tracer which cluster node this process records for — the
  // trace merger reads it back out of the file head (localNode) to pick
  // the clock-offset reference.
  obs::Tracer* tracer = obs_tracer();
  if (tracer != nullptr) tracer->set_local_node(local_);
}

}  // namespace mdgan::dist
