// End-to-end MD-GAN benchmark. One invocation runs one workload in this
// process, prints `<workload> <metric> <value> <unit>` lines and ends its
// standard output with one JSON object:
//
//   mdgan_e2e --workload <name> [--seed 42] [--trace 0|1]
//   mdgan_e2e --smoke [--benchmark BENCHMARK.json] [--seed 42]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures the per-layer metrics: tracing alternates on and off in blocks
// of rounds, so the same run also yields the tracing overhead. --smoke
// runs a few rounds of every workload both ways and checks the output
// against BENCHMARK.json. A run measures a fixed number of rounds, so two
// commits measure the same work whatever their speed; `--seconds S` is
// accepted and ignored. run.sh builds this binary and drives it;
// README.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "attribution.hpp"
#include "cluster.hpp"
#include "common/alloc_tracker.hpp"
#include "common/log.hpp"
#include "data/synthetic.hpp"
#include "metrics/evaluator.hpp"
#include "obs/json.hpp"

namespace e2e {
namespace {

using namespace mdgan;

// Run length: `measured` rounds after the warm-up, so p95 has ten samples
// beyond it.
struct Plan {
  std::int64_t warmup = 10;
  std::int64_t measured = 200;
  // Trace runs alternate traced and untraced blocks of this many rounds,
  // starting traced. With 10 warm-up rounds, rounds 64m and 128m fall in
  // the middle of a traced block, so the rare swaps of sim-w8-compute and
  // tcp-async-small are traced.
  std::int64_t block = 8;
  int setup_reps = 15;
};

// The FID evaluator's data and sampling stream are fixed, independent of
// the workload seed, so fid_final compares generators, not evaluators.
constexpr std::uint64_t kEvalSeed = 20190520;
constexpr std::int64_t kChecksumRound = 10;
constexpr double kMiB = 1024.0 * 1024.0;  // "MB" in every unit here

struct Result {
  std::string workload;
  std::vector<Metric> metrics;  // the JSON line's metrics
  std::vector<Metric> info;     // printed lines only
  std::vector<std::string> failures;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t fnv_r10 = 0, fnv_final = 0;
  std::array<dist::LinkTotals, 3> ledger{};
  std::uint64_t broadcast_saved = 0;
  bool correct() const { return failures.empty(); }
};

constexpr dist::LinkKind kLinks[] = {dist::LinkKind::kServerToWorker,
                                     dist::LinkKind::kWorkerToServer,
                                     dist::LinkKind::kWorkerToWorker};

std::array<dist::LinkTotals, 3> ledger_of(const dist::Transport& net) {
  std::array<dist::LinkTotals, 3> out{};
  for (std::size_t k = 0; k < 3; ++k) out[k] = net.totals(kLinks[k]);
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

bool all_finite(const std::vector<float>& v) {
  for (float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

double proc_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stod(line.substr(8));
  }
  return std::nan("");
}

// Median seconds per call of `op` after a warm-up, over at least 7 and at
// most 200 calls or 0.25 s; `prep` runs untimed before each call.
double time_op(const std::function<void()>& op,
               const std::function<void()>& prep = nullptr) {
  for (int i = 0; i < 3; ++i) {
    if (prep) prep();
    op();
  }
  std::vector<double> t;
  const double deadline = now_s() + 0.25;
  while (t.size() < 7 || (t.size() < 200 && now_s() < deadline)) {
    if (prep) prep();
    const double t0 = now_s();
    op();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

// Warmed medians of the public calls a round is made of, at the
// workload's shapes.
std::vector<Metric> calibrate(const Spec& spec, std::uint64_t seed) {
  const auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  const auto hp = config_of(spec).hp;
  const std::size_t b = spec.batch;
  Rng rng = Rng(seed).split(0xca1);
  auto g = gan::build_generator(arch, rng);
  auto d = gan::build_discriminator(arch, rng);
  opt::Adam g_opt(g.params(), g.grads(), hp.g_adam);
  opt::Adam d_opt(d.params(), d.grads(), hp.d_adam);
  gan::ClassCodes codes(arch.image.num_classes, arch.latent_dim);
  std::vector<int> y_fake, y_real;
  const Tensor z = gan::sample_latent(arch, codes, b, rng, y_fake);
  const Tensor x_fake = g.forward(z, true);
  const auto real = data::make_synthetic_digits(b, seed);
  const Tensor x_real = real.sample_batch(rng, b, &y_real);
  const Tensor upstream = Tensor::randn({b, arch.image_dim()}, rng, 0.f, 1e-3f);

  return {
      {"gan.disc_step_s", time_op([&] {
         gan::disc_learning_step(d, d_opt, x_real, y_real, x_fake, y_fake,
                                 arch.acgan);
       }),
       "s"},
      {"gan.feedback_s", time_op([&] {
         gan::generator_feedback(d, x_fake, &y_fake, hp.saturating);
       }),
       "s"},
      {"nn.gen_forward_s", time_op([&] { g.forward(z, true); }), "s"},
      {"nn.gen_backward_s", time_op([&] { g.backward(upstream); },
                                    [&] { g.forward(z, true); }),
       "s"},
      {"opt.adam_step_s", time_op([&] { g_opt.step(); }), "s"},
      // One swap message end to end, as MdGan's swap does it: flatten,
      // serialize, parse, assign.
      {"nn.swap_codec_s", time_op([&] {
         const auto params = d.flatten_parameters();
         ByteBuffer buf;
         buf.write_pod<std::uint32_t>(0);
         buf.write_floats(params.data(), params.size());
         buf.read_pod<std::uint32_t>();
         d.assign_parameters(buf.read_floats());
       }),
       "s"},
  };
}

// The phase <-> op model of README.md: each phase's compute ops at their
// calibrated cost, to set beside the traced core.* medians.
std::vector<Metric> phase_model(const Spec& spec,
                                const std::vector<Metric>& calibration) {
  auto cal = [&](const std::string& name) {
    for (const auto& m : calibration) {
      if (m.name == name) return m.value;
    }
    return std::nan("");
  };
  const double k = static_cast<double>(spec.k);
  const double w = static_cast<double>(spec.workers);
  const double fwd = cal("nn.gen_forward_s"), bwd = cal("nn.gen_backward_s");
  const double adam = cal("opt.adam_step_s");
  return {
      {"model.broadcast_s", k * fwd, "s"},
      {"model.local_s",
       static_cast<double>(spec.disc_steps) * cal("gan.disc_step_s") +
           cal("gan.feedback_s"),
       "s"},
      {"model.fold_s",
       spec.async ? w * (fwd + bwd + adam) : k * (fwd + bwd) + adam, "s"},
      // In-process the engine thread runs all W swap messages back to
      // back; over TCP each worker codes its own, in parallel.
      {"model.swap_s", (spec.tcp ? 1.0 : w) * cal("nn.swap_codec_s"), "s"},
  };
}

// Mean FID (512 samples each) of the generator snapshots.
double mean_fid(const std::vector<std::vector<float>>& snapshots,
                const gan::ClassCodes& codes) {
  const auto arch = gan::make_arch(gan::ArchKind::kMlpMnist);
  const auto train = data::make_synthetic_digits(4096, kEvalSeed);
  const auto test = data::make_synthetic_digits(1024, kEvalSeed + 1);
  metrics::Evaluator evaluator(train, test, {64, 3, 64, 1e-3f},
                               /*eval_samples=*/512, kEvalSeed);
  Rng init(kEvalSeed);
  auto g = gan::build_generator(arch, init);
  double total = 0;
  for (const auto& params : snapshots) {
    g.assign_parameters(params);
    total += evaluator.evaluate(g, arch, codes).fid;
  }
  return total / static_cast<double>(snapshots.size());
}

// The correctness gate every run passes through; each failure is listed.
void check_run(const Spec& spec, std::uint64_t seed, Cluster& cluster,
               std::int64_t rounds, Result& r) {
  auto& md = cluster.server();
  if (!all_finite(md.generator().flatten_parameters())) {
    r.failures.push_back("generator parameters are not finite");
  }
  const auto& reg = cluster.sinks()[0]->registry();
  for (auto kind : kLinks) {
    const std::string label =
        std::string("{link=") + dist::link_label(kind) + "}";
    const auto t = cluster.server_net().totals(kind);
    if (reg.counter_value("bytes_total" + label) != t.bytes ||
        reg.counter_value("messages_total" + label) != t.messages) {
      r.failures.push_back(std::string("registry != ledger on ") +
                           dist::link_label(kind));
    }
  }
  r.attempted = spec.workers * static_cast<std::uint64_t>(rounds);
  std::uint64_t folded = 0;
  if (spec.async) {
    folded = static_cast<std::uint64_t>(md.generator_updates());
  } else {
    folded = cluster.server_net()
                 .totals(dist::LinkKind::kWorkerToServer)
                 .messages;
    if (md.generator_updates() != rounds) {
      r.failures.push_back("sync server applied " +
                           std::to_string(md.generator_updates()) +
                           " updates in " + std::to_string(rounds) +
                           " rounds");
    }
  }
  if (folded != r.attempted || md.stale_feedbacks_dropped() != 0) {
    r.failures.push_back("folded " + std::to_string(folded) + " of " +
                         std::to_string(r.attempted) + " feedbacks");
  }
  if (spec.tcp && !spec.async) {
    // Sync rounds are bit-identical across transports: replay the first
    // rounds in-process and compare the generator.
    Spec ref = spec;
    ref.tcp = false;
    Cluster sim(ref, seed, nullptr);
    sim.run(1, kChecksumRound, nullptr);
    if (fnv1a(sim.server().generator().flatten_parameters()) != r.fnv_r10) {
      r.failures.push_back("round-10 generator differs from SimNetwork");
    }
  }
  // A short fold is itself a failed check, so the failed share is 0 or 1.
  r.failed = r.correct() ? 0 : r.attempted;
}

Result run_workload(const Spec& spec, std::uint64_t seed, const Plan& plan,
                    bool trace) {
  Result res;
  res.workload = spec.name;
  Recorder recorder;

  // Set-up is repeated and its median reported, so one slow rendezvous
  // does not decide setup_s; the last cluster is the one that trains.
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (int rep = 0; rep < (trace ? 1 : plan.setup_reps); ++rep) {
    cluster.reset();
    const double t0 = now_s();
    cluster =
        std::make_unique<Cluster>(spec, seed, trace ? &recorder : nullptr);
    setup_s.push_back(now_s() - t0);
  }

  const std::int64_t warmup = plan.warmup, block = plan.block;
  const std::int64_t n = plan.measured, last = warmup + n;
  const std::int64_t mid_round = warmup + n / 2;
  auto traced = [&](std::int64_t i) {
    return i <= warmup || ((i - warmup - 1) / block) % 2 == 0;
  };
  // Rounds are timed from outside, by the server's per-round hook:
  // windows[i] runs from the return of hook i-1 to the call of hook i, so
  // the hook's own bookkeeping is not part of any round. Entry 0 is unused.
  std::vector<Window> windows(1);
  double returned = now_s();
  std::vector<AllocStats> allocs{alloc_stats()};
  // Quality is scored on the checkpoints every 10 rounds over the last 100
  // rounds. One checkpoint swings by 8-25% across seeds as the GAN
  // oscillates; their mean is steadier.
  auto quality_checkpoint = [&](std::int64_t i) {
    return !trace && i >= last - 100 && (last - i) % 10 == 0;
  };
  std::vector<std::vector<float>> quality;
  double threads = std::nan("");
  std::array<dist::LinkTotals, 3> ledger_warm{};
  auto hook = [&](std::int64_t iter, nn::Sequential& g) {
    windows.push_back({returned, now_s()});
    if (iter == kChecksumRound) res.fnv_r10 = fnv1a(g.flatten_parameters());
    if (quality_checkpoint(iter)) quality.push_back(g.flatten_parameters());
    if (iter == warmup) ledger_warm = ledger_of(cluster->server_net());
    if (iter == mid_round) threads = proc_threads();
    allocs.push_back(alloc_stats());
    if (trace) cluster->set_tracing(traced(iter + 1));
    returned = now_s();
  };
  auto round_s = [&](std::int64_t i) {
    return windows[i].second - windows[i].first;
  };
  cluster->set_tracing(trace);
  cluster->run(1, last, hook);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  if (static_cast<std::int64_t>(windows.size()) != last + 1) {
    res.failures.push_back("training stopped after " +
                           std::to_string(windows.size() - 1) + " rounds");
    res.attempted = spec.workers * static_cast<std::uint64_t>(last);
    res.failed = res.attempted;
    return res;
  }

  std::vector<double> measured;
  for (std::int64_t i = warmup + 1; i <= last; ++i) {
    measured.push_back(round_s(i));
  }
  res.fnv_final = fnv1a(cluster->server().generator().flatten_parameters());
  res.ledger = ledger_of(cluster->server_net());
  res.broadcast_saved = cluster->sinks()[0]->registry().counter_value(
      "broadcast_bytes_saved_total");
  res.info.push_back({"measured_rounds", static_cast<double>(n), "rounds"});
  check_run(spec, seed, *cluster, last, res);
  res.info.push_back({"failed_ops_ratio",
                      static_cast<double>(res.failed) /
                          static_cast<double>(res.attempted),
                      "ratio"});
  const double per_round_samples =
      static_cast<double>(spec.workers * spec.batch * spec.disc_steps);

  if (!trace) {
    res.metrics = {
        {"round_s_p50", median(measured), "s"},
        {"round_s_p95", quantile(measured, 0.95), "s"},
        {"samples_per_s",
         per_round_samples * static_cast<double>(n) / sum(measured),
         "samples/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB,
         "MB"},
        {"fid_final", mean_fid(quality, cluster->server().codes()), "score"},
    };
    return res;
  }

  // Per-layer: attribute only rounds strictly inside a block, where every
  // role's spans of the round were recorded under one tracing state.
  auto edge = [&](std::int64_t i) {
    const std::int64_t pos = (i - warmup - 1) % block;
    return pos == 0 || pos == block - 1 || i == last;
  };
  std::vector<std::int64_t> on_rounds;
  std::vector<double> on_s, off_s;
  AllocStats off_alloc{};
  std::int64_t off_rounds = 0;
  for (std::int64_t i = warmup + 1; i <= last; ++i) {
    if (edge(i)) continue;
    const double r = round_s(i);
    if (traced(i)) {
      on_rounds.push_back(i);
      on_s.push_back(r);
    } else {
      off_s.push_back(r);
      const AllocStats d = allocs[i] - allocs[i - 1];
      off_alloc.count += d.count;
      off_alloc.bytes += d.bytes;
      ++off_rounds;
    }
  }
  const auto spans = collect_spans(*cluster);
  const auto recvs = recorder.recvs();
  PhaseMedians phases;
  res.metrics = core_metrics({static_cast<int>(spec.workers),
                              cluster->server().swap_period(), spans, recvs,
                              windows, on_rounds},
                             &phases);
  for (auto& m : dist_timing_metrics(recorder.sends(), recvs)) {
    res.metrics.push_back(std::move(m));
  }
  const double nd = static_cast<double>(n);
  std::uint64_t msgs = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    const auto bytes = res.ledger[k].bytes - ledger_warm[k].bytes;
    msgs += res.ledger[k].messages - ledger_warm[k].messages;
    res.metrics.push_back({std::string("dist.bytes_per_round.") +
                               dist::link_label(kLinks[k]),
                           static_cast<double>(bytes) / nd, "B/round"});
  }
  res.metrics.push_back(
      {"dist.msgs_per_round", static_cast<double>(msgs) / nd, "msgs/round"});
  res.metrics.push_back({"dist.threads", threads, "count"});
  const auto calibration = calibrate(spec, seed);
  res.metrics.insert(res.metrics.end(), calibration.begin(), calibration.end());
  const double off_n = static_cast<double>(off_rounds);
  res.metrics.push_back({"common.alloc_mb_per_round",
                         static_cast<double>(off_alloc.bytes) / off_n / kMiB,
                         "MB/round"});
  res.metrics.push_back({"common.allocs_per_round",
                         static_cast<double>(off_alloc.count) / off_n,
                         "allocs/round"});
  res.metrics.push_back(
      {"obs.trace_overhead", median(on_s) / median(off_s) - 1.0, "ratio"});

  res.info.push_back({"traced_rounds", static_cast<double>(on_s.size()),
                      "rounds"});
  res.info.push_back({"traced_round_s_p50", median(on_s), "s"});
  for (const auto& [name, v] : phases.phases) {
    res.info.push_back({"phase." + name + "_s", v, "s"});
  }
  for (auto& m : phase_model(spec, calibration)) {
    res.info.push_back(std::move(m));
  }
  // Producer time blocked on a full writer queue (TCP only). Printed, not
  // a BENCHMARK.json metric: at the default queue depth it reads 0 here.
  double stall = 0;
  for (const auto& sink : cluster->sinks()) {
    stall +=
        sink->registry().histogram("send_queue_stall_seconds", {1.0}).sum();
  }
  res.info.push_back({"dist.queue_stall_s", stall, "s"});
  return res;
}

std::string json_of(const Result& r) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (r.correct() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    os << (i ? ", " : "") << obs::json::quote(m.name)
       << ": {\"value\": " << m.value
       << ", \"unit\": " << obs::json::quote(m.unit) << "}";
  }
  os << "}}";
  return os.str();
}

void print_lines(const Result& r) {
  for (const auto* list : {&r.metrics, &r.info}) {
    for (const auto& m : *list) {
      std::printf("%s %s %.17g %s\n", r.workload.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  std::printf("%s gen_fnv1a_r10 %016llx fnv1a\n", r.workload.c_str(),
              static_cast<unsigned long long>(r.fnv_r10));
  std::printf("%s gen_fnv1a_final %016llx fnv1a\n", r.workload.c_str(),
              static_cast<unsigned long long>(r.fnv_final));
  for (const auto& f : r.failures) {
    std::fprintf(stderr, "%s: check failed: %s\n", r.workload.c_str(),
                 f.c_str());
  }
}

// A metric without samples would print as NaN, which JSON cannot carry:
// count it as a failed check instead.
void reject_non_finite(Result& r) {
  for (auto& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.failures.push_back("metric " + m.name + " has no finite value");
      m.value = 0;
      r.failed = r.attempted;
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --smoke: every workload for a few rounds, untraced and traced. The
// untraced run has no TimedTransport, so the pair also checks that the
// decorator changes nothing: same ledger and broadcast savings, and in
// sync mode the same final generator. Then the results go through the
// in-tree JSON parser and every metric BENCHMARK.json names must come
// back finite and with a unit.
int run_smoke(std::uint64_t seed, const std::string& benchmark_path) {
  const double t0 = now_s();
  obs::json::Value bench;
  std::string err;
  if (!obs::json::parse(read_file(benchmark_path), &bench, &err)) {
    throw std::runtime_error(benchmark_path + ": " + err);
  }
  Plan plan;
  plan.warmup = 1;
  plan.measured = 16;
  plan.block = 4;
  plan.setup_reps = 1;
  std::vector<std::string> failures;
  std::string text = "{";
  for (const auto& base : specs()) {
    Spec spec = base;
    spec.shard = 2 * spec.batch;  // a swap every other round
    Result off = run_workload(spec, seed, plan, false);
    Result on = run_workload(spec, seed, plan, true);
    for (Result* r : {&off, &on}) {
      reject_non_finite(*r);
      print_lines(*r);
      for (const auto& f : r->failures) {
        failures.push_back(spec.name + (": " + f));
      }
    }
    for (std::size_t k = 0; k < 3; ++k) {
      if (off.ledger[k].bytes != on.ledger[k].bytes ||
          off.ledger[k].messages != on.ledger[k].messages) {
        failures.push_back(std::string(spec.name) +
                           ": the TimedTransport changed the ledger");
      }
    }
    if (off.broadcast_saved != on.broadcast_saved) {
      failures.push_back(std::string(spec.name) +
                         ": the TimedTransport changed broadcast savings");
    }
    if (!spec.async && off.fnv_final != on.fnv_final) {
      failures.push_back(std::string(spec.name) +
                         ": the TimedTransport changed the generator");
    }
    text += std::string(text.size() > 1 ? ", " : "") +
            obs::json::quote(spec.name) + ": {\"end_to_end\": " +
            json_of(off) + ", \"per_layer\": " + json_of(on) + "}";
  }
  text += "}";

  obs::json::Value parsed;
  if (!obs::json::parse(text, &parsed, &err)) {
    failures.push_back("result JSON does not parse: " + err);
  }
  // Null-propagating member lookup.
  auto at = [](const obs::json::Value* v, const std::string& key) {
    return v != nullptr ? v->find(key) : nullptr;
  };
  std::size_t checked = 0;
  for (const char* group : {"end_to_end", "per_layer"}) {
    const obs::json::Value* list = bench.find(group);
    if (list == nullptr || !list->is_array()) {
      failures.push_back(benchmark_path + " has no " + group + " list");
      continue;
    }
    for (const auto& spec : specs()) {
      const auto* got = at(at(at(&parsed, spec.name), group), "metrics");
      for (const auto& want : list->array) {
        const auto* name = want.find("name");
        const std::string n = name != nullptr ? name->str_or("") : "";
        const auto* v = at(at(got, n), "value");
        const auto* u = at(at(got, n), "unit");
        ++checked;
        if (v == nullptr || !v->is_number() || !std::isfinite(v->number) ||
            u == nullptr || u->str_or("").empty()) {
          failures.push_back(std::string(spec.name) + ": metric " + n +
                             " missing, non-finite or without a unit");
        }
      }
    }
  }
  for (const auto& f : failures) {
    std::fprintf(stderr, "smoke: %s\n", f.c_str());
  }
  const double elapsed = now_s() - t0;
  std::printf("smoke %s: %zu metric checks, %.1f s\n",
              failures.empty() ? "ok" : "FAILED", checked, elapsed);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {}}\n",
              failures.empty() ? "true" : "false", checked, failures.size());
  return failures.empty() ? 0 : 1;
}

// Accepts `--key value` and `--key=value`; a key followed by another
// flag (or nothing) is a switch.
std::map<std::string, std::string> parse_args(int argc, char** argv) {
  static const char* const kKnown[] = {"workload", "seed",  "seconds",
                                       "trace",    "smoke", "benchmark"};
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + a + "'");
    }
    a = a.substr(2);
    std::string value;
    if (const auto eq = a.find('='); eq != std::string::npos) {
      value = a.substr(eq + 1);
      a = a.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    if (std::find(std::begin(kKnown), std::end(kKnown), a) ==
        std::end(kKnown)) {
      throw std::invalid_argument("unknown flag --" + a);
    }
    args[a] = value;
  }
  return args;
}

int run_main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  auto args = parse_args(argc, argv);
  auto get = [&](const char* key, const std::string& fallback) {
    auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  };
  const std::uint64_t seed = std::stoull(get("seed", "42"));
  if (args.count("smoke")) {
    return run_smoke(seed, get("benchmark", "BENCHMARK.json"));
  }
  const std::string name = get("workload", "");
  const Spec* spec = find_spec(name);
  if (spec == nullptr) {
    std::string names;
    for (const auto& s : specs()) names += std::string(" ") + s.name;
    throw std::invalid_argument("--workload must be one of:" + names);
  }
  const Plan plan;
  const std::string trace = get("trace", "0");
  if (trace != "0" && trace != "1") {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  Result r = run_workload(*spec, seed, plan, trace == "1");
  reject_non_finite(r);
  print_lines(r);
  std::printf("%s\n", json_of(r).c_str());
  return r.correct() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mdgan_e2e: %s\n", e.what());
    return 2;
  }
}
