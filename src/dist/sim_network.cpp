#include "dist/sim_network.hpp"

#include <algorithm>
#include <stdexcept>

namespace mdgan::dist {

SimNetwork::SimNetwork(std::size_t n_workers) : n_workers_(n_workers) {
  if (n_workers_ == 0) {
    throw std::invalid_argument("SimNetwork: need at least one worker");
  }
  alive_.assign(n_workers_ + 1, true);
  mailbox_.resize(n_workers_ + 1);
  ingress_window_.assign(n_workers_ + 1, 0);
  ingress_max_.assign(n_workers_ + 1, 0);
  sim_time_.assign(n_workers_ + 1, 0.0);
  link_busy_.assign((n_workers_ + 1) * (n_workers_ + 1), 0.0);
  link_seq_.assign((n_workers_ + 1) * (n_workers_ + 1), 0);
  flow_seq_.assign((n_workers_ + 1) * (n_workers_ + 1), 0);
  nic_out_busy_.assign(n_workers_ + 1, 0.0);
  nic_in_busy_.assign(n_workers_ + 1, 0.0);
  partitions_.resize(n_workers_ + 1);
}

void SimNetwork::check_node(int node) const {
  if (node < 0 || node > static_cast<int>(n_workers_)) {
    throw std::out_of_range("SimNetwork: node id " + std::to_string(node) +
                            " outside [0, " + std::to_string(n_workers_) +
                            "]");
  }
}

void SimNetwork::begin_iteration(std::int64_t /*iter*/) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t n = 0; n < ingress_window_.size(); ++n) {
    ingress_max_[n] = std::max(ingress_max_[n], ingress_window_[n]);
    ingress_window_[n] = 0;
  }
}

void SimNetwork::send(int from, int to, const std::string& tag,
                      SharedBuf&& payload) {
  // In-process there is no iovec to exploit: credit what the sharing
  // saved and deliver the concatenation, which charges the accountant
  // byte-for-byte like the segmented TCP write does.
  obs_broadcast_saved(payload.shared_bytes());
  send(from, to, tag, payload.concat());
}

void SimNetwork::send(int from, int to, const std::string& tag,
                      ByteBuffer&& payload) {
  check_node(from);
  check_node(to);
  const LinkKind kind = link_kind(from, to);
  const std::size_t n_bytes = payload.size();
  // Trace bookkeeping captured under the lock, emitted after it: the
  // tracer must never be called while mu_ is held (its sim-clock
  // callbacks may re-enter sim_time()).
  obs::Tracer* tracer = obs_tracer();
  double depart_s = -1.0, arrive_s = -1.0;
  std::uint64_t flow = 0;
  const std::int64_t wall_t0 = tracer != nullptr ? tracer->now_ns() : 0;
  {
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_[static_cast<std::size_t>(from)] ||
      !alive_[static_cast<std::size_t>(to)]) {
    return;  // fail-stop: a dead endpoint moves no bytes
  }
  auto& t = totals_[link_index(kind)];
  t.bytes += payload.size();
  t.messages += 1;
  obs_charge(kind, tag, payload.size());
  ingress_window_[static_cast<std::size_t>(to)] += payload.size();

  // Virtual clock: the message departs at the sender's current time and
  // arrives after queueing behind earlier traffic on the same link (and,
  // when NIC caps are configured, behind the sender's other outgoing and
  // the receiver's other incoming transfers) plus the link's
  // transmit/latency/jitter cost. Zero model: arrival == sender clock,
  // no link state touched (clocks stay wherever advance_time left them,
  // i.e. all-zero by default).
  double arrival = sim_time_[static_cast<std::size_t>(from)];
  if (!model_zero_) {
    const std::size_t li = pair_index(from, to);
    const LinkDelay d =
        model_.delay(from, to, payload.size(), link_seq_[li]++);
    double start = std::max(arrival, link_busy_[li]);
    double transmit = d.transmit_s;
    // A capped NIC is one shared serializing resource per node: the
    // transfer must wait for it to free and holds it for the whole
    // transmit, whose duration is governed by the slowest resource on
    // the path (link, sender NIC, receiver NIC). Uncapped nodes skip
    // this entirely, preserving the independent-link behavior.
    const double out_rate = model_.nic_bytes_per_s(from);
    const double in_rate = model_.nic_bytes_per_s(to);
    const auto bytes = static_cast<double>(payload.size());
    if (out_rate > 0.0) {
      start = std::max(start, nic_out_busy_[static_cast<std::size_t>(from)]);
      transmit = std::max(transmit, bytes / out_rate);
    }
    if (in_rate > 0.0) {
      start = std::max(start, nic_in_busy_[static_cast<std::size_t>(to)]);
      transmit = std::max(transmit, bytes / in_rate);
    }
    link_busy_[li] = start + transmit;
    if (out_rate > 0.0) {
      nic_out_busy_[static_cast<std::size_t>(from)] = start + transmit;
    }
    if (in_rate > 0.0) {
      nic_in_busy_[static_cast<std::size_t>(to)] = start + transmit;
    }
    arrival = start + transmit + d.propagation_s;
  }

  // A partitioned endpoint stalls the message: anything departing or
  // arriving inside a partition window of either end is held until the
  // window closes (the delivery a resumed link produces). Flooring the
  // arrival into one window can push it inside ANOTHER (overlapping or
  // adjacent, possibly one already iterated), so rescan until the
  // arrival reaches a fixed point.
  {
    const double depart = sim_time_[static_cast<std::size_t>(from)];
    for (;;) {
      double next = arrival;
      for (int node : {from, to}) {
        for (const Window& w : partitions_[static_cast<std::size_t>(node)]) {
          if ((depart >= w.from_s && depart < w.until_s) ||
              (next >= w.from_s && next < w.until_s)) {
            next = std::max(next, w.until_s);
          }
        }
      }
      if (next == arrival) break;
      arrival = next;
    }
  }

  depart_s = sim_time_[static_cast<std::size_t>(from)];
  arrive_s = arrival;

  // Flow id for the merged cluster trace: per-directed-link sequence,
  // assigned under mu_ so program order on one link is sequence order.
  flow = flow_id(from, to,
                 static_cast<std::uint32_t>(
                     ++flow_seq_[pair_index(from, to)]));

  Message msg;
  msg.from = from;
  msg.tag = tag;
  msg.payload = std::move(payload);
  msg.arrival_s = arrival;
  msg.flow = flow;
  mailbox_[static_cast<std::size_t>(to)].push(std::move(msg));
  }  // mu_ released before touching the tracer

  trace_send(tracer, from, tag, wall_t0, depart_s, arrive_s, n_bytes, flow);
}

std::optional<Message> SimNetwork::receive_tagged(int node,
                                                  const std::string& tag) {
  check_node(node);
  obs::Tracer* tracer = obs_tracer();
  const std::int64_t wall_t0 = tracer != nullptr ? tracer->now_ns() : 0;
  std::optional<Message> out;
  double clock_after = -1.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!alive_[static_cast<std::size_t>(node)]) return std::nullopt;
    out = mailbox_[static_cast<std::size_t>(node)].pop(tag);
    if (!out) return std::nullopt;
    // Consuming a message is the receiver's next event: its clock jumps
    // forward to the arrival time (never backward — the receiver may
    // already be later because of advance_time or an earlier arrival).
    auto& clock = sim_time_[static_cast<std::size_t>(node)];
    clock = std::max(clock, out->arrival_s);
    clock_after = clock;
  }  // mu_ released before touching the tracer

  trace_recv(tracer, node, wall_t0, *out, clock_after);
  return out;
}

std::size_t SimNetwork::pending(int node) const {
  check_node(node);
  std::lock_guard<std::mutex> lock(mu_);
  return mailbox_[static_cast<std::size_t>(node)].size();
}

LinkTotals SimNetwork::totals(LinkKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_[link_index(kind)];
}

std::uint64_t SimNetwork::message_count(LinkKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_[link_index(kind)].messages;
}

std::uint64_t SimNetwork::max_ingress_per_iteration(int node) const {
  check_node(node);
  std::lock_guard<std::mutex> lock(mu_);
  const auto n = static_cast<std::size_t>(node);
  return std::max(ingress_max_[n], ingress_window_[n]);
}

void SimNetwork::set_link_model(LinkModel model) {
  std::lock_guard<std::mutex> lock(mu_);
  model_ = std::move(model);
  model_zero_ = model_.zero();
}

const LinkModel& SimNetwork::link_model() const { return model_; }

double SimNetwork::sim_time(int node) const {
  check_node(node);
  std::lock_guard<std::mutex> lock(mu_);
  return sim_time_[static_cast<std::size_t>(node)];
}

void SimNetwork::advance_time(int node, double seconds) {
  check_node(node);
  if (seconds < 0.0) {
    throw std::invalid_argument("SimNetwork: cannot advance time backwards");
  }
  std::lock_guard<std::mutex> lock(mu_);
  sim_time_[static_cast<std::size_t>(node)] += seconds;
}

double SimNetwork::max_sim_time() const {
  std::lock_guard<std::mutex> lock(mu_);
  double out = sim_time_[kServerId];  // the server never crashes
  for (std::size_t n = 1; n < sim_time_.size(); ++n) {
    if (alive_[n]) out = std::max(out, sim_time_[n]);
  }
  return out;
}

void SimNetwork::crash(int worker) {
  check_node(worker);
  if (worker == kServerId) {
    throw std::invalid_argument("SimNetwork: the server cannot crash");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_[static_cast<std::size_t>(worker)]) return;  // idempotent
  alive_[static_cast<std::size_t>(worker)] = false;
  mailbox_[static_cast<std::size_t>(worker)].clear();
  ++epoch_;
  obs_peer_death(worker, sim_time_[static_cast<std::size_t>(worker)]);
  obs_membership_epoch(epoch_);
}

void SimNetwork::set_liveness(const LivenessConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  liveness_ = cfg;
}

void SimNetwork::partition(int w, double from_s, double until_s) {
  check_node(w);
  if (w == kServerId) {
    throw std::invalid_argument("SimNetwork: cannot partition the server");
  }
  if (until_s <= from_s) {
    throw std::invalid_argument("SimNetwork: empty partition window");
  }
  bool evict = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    partitions_[static_cast<std::size_t>(w)].push_back({from_s, until_s});
    // The whole window is known up front, so the liveness verdict is
    // too — judge it eagerly, exactly as the TCP tracker would after
    // the fact: silence past suspect_after_s is one suspect episode,
    // silence past the grace window is death.
    if (liveness_.enabled()) {
      const double silence = until_s - from_s;
      if (silence >= liveness_.suspect_after_s) {
        ++suspect_count_;
        obs_suspect(w);
        evict = silence >= liveness_.dead_after_s();
      }
    }
  }
  if (evict) crash(w);
}

std::uint64_t SimNetwork::suspect_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suspect_count_;
}

std::uint64_t SimNetwork::membership_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

bool SimNetwork::is_alive(int node) const {
  check_node(node);
  std::lock_guard<std::mutex> lock(mu_);
  return alive_[static_cast<std::size_t>(node)];
}

std::vector<int> SimNetwork::alive_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  out.reserve(n_workers_);
  for (std::size_t w = 1; w <= n_workers_; ++w) {
    if (alive_[w]) out.push_back(static_cast<int>(w));
  }
  return out;
}

std::size_t SimNetwork::alive_worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::count(alive_.begin() + 1, alive_.end(), true));
}

}  // namespace mdgan::dist
