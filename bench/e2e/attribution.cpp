#include "attribution.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <tuple>

namespace e2e {

namespace {

// Seconds of [a, b] covered by `v`, one node's receive calls (one thread
// at a time receives for a node, so they never overlap).
double covered(const std::vector<Window>& v, double a, double b) {
  double s = 0;
  for (const auto& [t0, t1] : v) {
    const double lo = std::max(t0, a), hi = std::min(t1, b);
    if (hi > lo) s += hi - lo;
  }
  return s;
}

const char* const kPhases[] = {"membership", "broadcast", "local", "collect",
                               "swap"};

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PhaseMedians::sum() const {
  double s = 0;
  for (const auto& p : phases) s += p.second;
  return s;
}

std::vector<SpanRec> collect_spans(Cluster& cluster) {
  std::vector<SpanRec> out;
  for (const auto& sink : cluster.sinks()) {
    mdgan::obs::Tracer& tr = sink->tracer();
    const double a = now_s();
    const double t = static_cast<double>(tr.now_ns()) / 1e9;
    const double offset = (a + now_s()) / 2 - t;
    for (const auto& ev : tr.snapshot()) {
      const std::string name = ev.name;
      if (name.rfind("phase:", 0) != 0 && name != "local_step") continue;
      const double t0 = static_cast<double>(ev.wall_t0_ns) / 1e9 + offset;
      out.push_back({name, ev.node, ev.iter, t0,
                     t0 + static_cast<double>(ev.wall_dur_ns) / 1e9});
    }
  }
  return out;
}

std::vector<Metric> core_metrics(const CoreInput& in, PhaseMedians* phases) {
  std::map<int, std::vector<Window>> recv_at;
  for (const auto& r : in.recvs) recv_at[r.node].push_back({r.t0, r.t1});
  std::map<std::tuple<int, std::int64_t, std::string>, const SpanRec*> at;
  for (const auto& s : in.spans) at[{s.node, s.iter, s.name}] = &s;
  auto find = [&](int node, std::int64_t i,
                  const std::string& name) -> const SpanRec* {
    auto it = at.find({node, i, name});
    return it == at.end() ? nullptr : it->second;
  };
  auto dur = [](const SpanRec* s) { return s ? s->t1 - s->t0 : 0.0; };

  const int workers = in.workers;
  std::vector<std::vector<double>> phase(std::size(kPhases));
  std::vector<double> window, fold, local, swap;
  double window_sum = 0, idle_server = 0, idle_workers = 0;
  for (std::int64_t i : in.rounds) {
    const auto [a, b] = in.windows[i];
    window.push_back(b - a);
    window_sum += b - a;
    for (std::size_t p = 0; p < phase.size(); ++p) {
      phase[p].push_back(dur(find(0, i, std::string("phase:") + kPhases[p])));
    }
    if (const SpanRec* c = find(0, i, "phase:collect")) {
      fold.push_back(dur(c) - covered(recv_at[0], c->t0, c->t1));
    }
    for (int w = 1; w <= workers; ++w) {
      if (const SpanRec* s = find(w, i, "local_step")) {
        local.push_back(dur(s) - covered(recv_at[w], s->t0, s->t1));
      }
    }
    // The swap runs on the worker engines over TCP and on the one
    // in-process engine under SimNetwork: take whichever node was longest.
    if (i % in.swap_period == 0) {
      double longest = 0;
      for (int n = 0; n <= workers; ++n) {
        longest = std::max(longest, dur(find(n, i, "phase:swap")));
      }
      if (longest > 0) swap.push_back(longest);
    }
    idle_server += covered(recv_at[0], a, b);
    for (int w = 1; w <= workers; ++w) {
      idle_workers += covered(recv_at[w], a, b);
    }
  }

  PhaseMedians pm;
  for (std::size_t p = 0; p < phase.size(); ++p) {
    pm.phases.push_back({kPhases[p], median(phase[p])});
  }
  std::vector<Metric> out = {
      {"core.broadcast_s", pm.phases[1].second, "s"},
      {"core.local_s", median(local), "s"},
      {"core.collect_s", pm.phases[3].second, "s"},
      {"core.fold_s", median(fold), "s"},
      {"core.swap_s", median(swap), "s"},
      {"core.server_idle_share", idle_server / window_sum, "ratio"},
      {"core.worker_idle_share", idle_workers / (workers * window_sum),
       "ratio"},
      {"core.phase_coverage", pm.sum() / median(window), "ratio"},
  };
  if (phases != nullptr) *phases = std::move(pm);
  return out;
}

std::vector<Metric> dist_timing_metrics(
    const std::vector<Recorder::Send>& sends,
    const std::vector<Recorder::Recv>& recvs) {
  std::map<std::tuple<std::string, int, int, std::uint64_t>,
           const Recorder::Recv*>
      receipt;
  for (const auto& r : recvs) {
    if (r.from >= 0) receipt[{r.tag, r.from, r.node, r.seq}] = &r;
  }
  std::vector<Metric> send_m, wire_m;
  for (const char* tag : {"gen_batches", "feedback", "disc_swap"}) {
    std::vector<double> send_s, wire_s;
    for (const auto& s : sends) {
      if (s.tag != tag) continue;
      send_s.push_back(s.t1 - s.t0);
      auto it = receipt.find({s.tag, s.from, s.to, s.seq});
      if (it == receipt.end()) continue;
      // Without a wall-clock arrival (SimNetwork) the message reached the
      // mailbox inside send(), so its wire time is the send itself.
      wire_s.push_back(it->second->arrival ? *it->second->arrival - s.t0
                                           : s.t1 - s.t0);
    }
    send_m.push_back({std::string("dist.send_s.") + tag, median(send_s), "s"});
    wire_m.push_back({std::string("dist.wire_s.") + tag, median(wire_s), "s"});
  }
  send_m.insert(send_m.end(), wire_m.begin(), wire_m.end());
  return send_m;
}

}  // namespace e2e
