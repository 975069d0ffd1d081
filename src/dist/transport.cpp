#include "dist/transport.hpp"

#include <cstdio>
#include <stdexcept>

namespace mdgan::dist {

namespace {

void trace_net(obs::Tracer* tracer, const char* dir, int node,
               const std::string& tag, std::int64_t wall_t0_ns,
               double sim_t0, double sim_t1, std::size_t bytes,
               std::uint64_t flow) {
  if (tracer == nullptr) return;
  obs::TraceEvent ev;
  std::snprintf(ev.name, obs::TraceEvent::kNameCap, "%s:%s", dir,
                tag.c_str());
  ev.cat = obs::Cat::kNet;
  ev.node = node;
  ev.wall_t0_ns = wall_t0_ns;
  ev.wall_dur_ns = tracer->now_ns() - wall_t0_ns;
  ev.sim_t0 = sim_t0;
  ev.sim_t1 = sim_t1;
  ev.bytes = bytes;
  ev.flow = flow;
  tracer->emit(ev);
}

}  // namespace

Transport::~Transport() = default;

void Transport::trace_send(obs::Tracer* tracer, int node,
                           const std::string& tag, std::int64_t wall_t0_ns,
                           double sim_t0, double sim_t1, std::size_t bytes,
                           std::uint64_t flow) {
  trace_net(tracer, "send", node, tag, wall_t0_ns, sim_t0, sim_t1, bytes,
            flow);
}

void Transport::trace_recv(obs::Tracer* tracer, int node,
                           std::int64_t wall_t0_ns, const Message& msg,
                           double sim_t1) {
  trace_net(tracer, "recv", node, msg.tag, wall_t0_ns, msg.arrival_s, sim_t1,
            msg.payload.size(), msg.flow);
}

LinkKind link_kind(int from, int to) {
  if (from == kServerId && to == kServerId) {
    throw std::invalid_argument("link_kind: server->server has no link");
  }
  if (from == kServerId) return LinkKind::kServerToWorker;
  if (to == kServerId) return LinkKind::kWorkerToServer;
  return LinkKind::kWorkerToWorker;
}

const char* link_label(LinkKind kind) {
  switch (kind) {
    case LinkKind::kServerToWorker:
      return "c2w";
    case LinkKind::kWorkerToServer:
      return "w2c";
    case LinkKind::kWorkerToWorker:
      return "w2w";
  }
  return "?";
}

void Transport::set_sink(obs::Sink* sink) {
  // Read before the lock: a backend may take the same lock to answer.
  const std::uint64_t epoch = membership_epoch();
  {
    const auto lock = lock_instruments();
    bind_instruments(sink, epoch);
  }
  // Let the backend flush anything it counted before the sink existed.
  if (sink != nullptr) on_sink_attached();
}

void Transport::bind_instruments(obs::Sink* sink, std::uint64_t epoch) {
  sink_ = sink;
  if (sink_ == nullptr) {
    for (auto& l : link_obs_) l = {};
    flight_ = nullptr;
    epoch_gauge_ = nullptr;
    peer_deaths_total_ = nullptr;
    rejoins_total_ = nullptr;
    rejoin_admitted_total_ = nullptr;
    suspects_total_ = nullptr;
    dial_retries_total_ = nullptr;
    heartbeat_rtt_s_ = nullptr;
    queue_depth_gauge_ = nullptr;
    queue_stall_s_ = nullptr;
    broadcast_saved_total_ = nullptr;
    return;
  }
  // Resolve the hot-path counters once; updates are then lock-free.
  obs::Registry& r = sink_->registry();
  for (auto kind : {LinkKind::kServerToWorker, LinkKind::kWorkerToServer,
                    LinkKind::kWorkerToWorker}) {
    const std::string label = std::string("link=") + link_label(kind);
    auto& l = link_obs_[static_cast<std::size_t>(kind)];
    l.bytes = &r.counter("bytes_total", label);
    l.messages = &r.counter("messages_total", label);
    l.feedback_bytes = &r.counter("feedback_bytes_total", label);
  }
  flight_ = sink_->flight().enabled() ? &sink_->flight() : nullptr;
  epoch_gauge_ = &r.gauge("membership_epoch");
  peer_deaths_total_ = &r.counter("peer_deaths_total");
  rejoins_total_ = &r.counter("rejoins_total");
  rejoin_admitted_total_ = &r.counter("rejoin_admitted_total");
  suspects_total_ = &r.counter("suspects_total");
  dial_retries_total_ = &r.counter("dial_retries_total");
  heartbeat_rtt_s_ = &r.histogram(
      "heartbeat_rtt_seconds",
      {1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0});
  queue_depth_gauge_ = &r.gauge("send_queue_depth");
  queue_stall_s_ = &r.histogram(
      "send_queue_stall_seconds",
      {1e-4, 1e-3, 1e-2, 1e-1, 0.5, 1.0, 5.0});
  broadcast_saved_total_ = &r.counter("broadcast_bytes_saved_total");
  // An endpoint may attach the sink after membership already changed
  // (MdGan::train attaches on entry); publish the current epoch so the
  // gauge never reads behind the counter it summarizes.
  obs_membership_epoch(epoch);
}

}  // namespace mdgan::dist
