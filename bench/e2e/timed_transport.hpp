// Bench-side transport decorator: forwards every dist::Transport virtual
// to the wrapped endpoint unchanged and, while its Recorder is switched
// on, records each send() and receive call with its start and end on the
// benchmark clock. A decorator that forgot a virtual would silently route
// the wrapped run through the base-class fallback (e.g. the copying
// SharedBuf send), so every virtual is forwarded; --smoke checks that a
// wrapped run and a bare run end with the same generator, ledger and
// broadcast_bytes_saved_total.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "dist/transport.hpp"

namespace e2e {

// Seconds on the benchmark clock (steady_clock since its epoch). Every
// timestamp the benchmark compares — hook returns, transport records,
// tracer spans — is mapped onto this clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Message timing records shared by every endpoint's TimedTransport, so a
// send on one endpoint can be paired with its arrival on another.
class Recorder {
 public:
  struct Send {
    std::string tag;
    int from = 0, to = 0;
    std::uint64_t seq = 0;  // index among sends with this (tag, from, to)
    double t0 = 0, t1 = 0;
  };
  struct Recv {
    std::string tag;
    int node = 0, from = -1;  // from = -1: the call returned nothing
    std::uint64_t seq = 0;    // index among receipts with (tag, from, node)
    double t0 = 0, t1 = 0;
    // Mailbox arrival on the benchmark clock; nullopt where the transport
    // has no wall-clock arrival (SimNetwork enqueues inside send()).
    std::optional<double> arrival;
  };

  void set_on(bool on) {
    std::lock_guard<std::mutex> lock(mu_);
    on_ = on;
  }

  // Sequence numbers advance whether or not recording is on, so sends and
  // receipts recorded in the same traced window still pair up by
  // (tag, from, to, seq) after untraced traffic went by.
  void add_send(Send s) {
    std::lock_guard<std::mutex> lock(mu_);
    s.seq = send_seq_[{s.tag, s.from, s.to}]++;
    if (on_) sends_.push_back(std::move(s));
  }
  void add_recv(Recv r) {
    std::lock_guard<std::mutex> lock(mu_);
    if (r.from >= 0) r.seq = recv_seq_[{r.tag, r.from, r.node}]++;
    if (on_) recvs_.push_back(std::move(r));
  }

  std::vector<Send> sends() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sends_;
  }
  std::vector<Recv> recvs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recvs_;
  }

 private:
  using Key = std::tuple<std::string, int, int>;
  mutable std::mutex mu_;
  bool on_ = false;
  std::map<Key, std::uint64_t> send_seq_, recv_seq_;
  std::vector<Send> sends_;
  std::vector<Recv> recvs_;
};

class TimedTransport final : public mdgan::dist::Transport {
 public:
  // `local` is the endpoint's node id when it has a measured clock (a
  // TcpNetwork endpoint): Message::arrival_s is then mapped onto the
  // benchmark clock through the endpoint's sim_time offset. nullopt for
  // SimNetwork, whose arrival stamps are modeled time.
  TimedTransport(mdgan::dist::Transport& inner, Recorder& rec,
                 std::optional<int> local)
      : inner_(inner), rec_(rec) {
    if (local) {
      const double a = now_s();
      const double s = inner_.sim_time(*local);
      clock_offset_ = (a + now_s()) / 2 - s;
    }
  }

  std::size_t n_workers() const override { return inner_.n_workers(); }
  void begin_iteration(std::int64_t iter) override {
    inner_.begin_iteration(iter);
  }
  void send(int from, int to, const std::string& tag,
            mdgan::ByteBuffer&& payload) override {
    const double t0 = now_s();
    inner_.send(from, to, tag, std::move(payload));
    rec_.add_send({tag, from, to, 0, t0, now_s()});
  }
  void send(int from, int to, const std::string& tag,
            mdgan::dist::SharedBuf&& payload) override {
    const double t0 = now_s();
    inner_.send(from, to, tag, std::move(payload));
    rec_.add_send({tag, from, to, 0, t0, now_s()});
  }
  std::optional<mdgan::dist::Message> receive_tagged(
      int node, const std::string& tag) override {
    const double t0 = now_s();
    auto msg = inner_.receive_tagged(node, tag);
    record_recv(node, tag, t0, msg);
    return msg;
  }
  std::optional<mdgan::dist::Message> try_receive_tagged(
      int node, const std::string& tag) override {
    const double t0 = now_s();
    auto msg = inner_.try_receive_tagged(node, tag);
    record_recv(node, tag, t0, msg);
    return msg;
  }
  std::size_t pending(int node) const override { return inner_.pending(node); }

  mdgan::dist::LinkTotals totals(mdgan::dist::LinkKind kind) const override {
    return inner_.totals(kind);
  }
  std::uint64_t message_count(mdgan::dist::LinkKind kind) const override {
    return inner_.message_count(kind);
  }
  std::uint64_t max_ingress_per_iteration(int node) const override {
    return inner_.max_ingress_per_iteration(node);
  }

  double sim_time(int node) const override { return inner_.sim_time(node); }
  void advance_time(int node, double seconds) override {
    inner_.advance_time(node, seconds);
  }
  double max_sim_time() const override { return inner_.max_sim_time(); }

  void crash(int worker) override { inner_.crash(worker); }
  bool is_alive(int node) const override { return inner_.is_alive(node); }
  std::vector<int> alive_workers() const override {
    return inner_.alive_workers();
  }
  std::size_t alive_worker_count() const override {
    return inner_.alive_worker_count();
  }
  std::uint64_t membership_epoch() const override {
    return inner_.membership_epoch();
  }

  std::vector<int> take_rejoin_grants() override {
    return inner_.take_rejoin_grants();
  }
  std::vector<Admission> take_admissions() override {
    return inner_.take_admissions();
  }
  void announce_admission(int worker, std::int64_t round) override {
    inner_.announce_admission(worker, round);
  }
  void ship_rejoin_state(int worker, mdgan::ByteBuffer&& state) override {
    inner_.ship_rejoin_state(worker, std::move(state));
  }
  bool await_alive(int node, double timeout_s) override {
    return inner_.await_alive(node, timeout_s);
  }

 private:
  void record_recv(int node, const std::string& tag, double t0,
                   const std::optional<mdgan::dist::Message>& msg) {
    Recorder::Recv r{tag, node, -1, 0, t0, now_s(), std::nullopt};
    if (msg) {
      r.from = msg->from;
      if (clock_offset_) r.arrival = msg->arrival_s + *clock_offset_;
    }
    rec_.add_recv(std::move(r));
  }

  mdgan::dist::Transport& inner_;
  Recorder& rec_;
  std::optional<double> clock_offset_;
};

}  // namespace e2e
