// Checks that need a real process boundary: each case runs mdgan_node
// roles and mdgan_trace_merge as child processes on 127.0.0.1 and
// asserts on their exit statuses, logs and telemetry files. The drill
// timings are part of the check: the kill lands 1.2 s after the
// rendezvous with a 60 ms step delay, and the stop lasts 1.2 s against
// a 400 ms suspect threshold and a 6 s grace window. Each case works in
// a fresh temporary directory, kept with its logs when the case fails.
// Children die with this binary (PR_SET_PDEATHSIG), so a crash or a
// ctest timeout leaves no node running.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace mdgan {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using obs::json::Value;
using Args = std::vector<std::string>;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

Clock::time_point after_s(double s) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(s));
}

Args join(Args a, const Args& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// One child process running `argv` in `dir`, its stdout and stderr
// going to dir/log. Killed and reaped when it goes out of scope.
class Proc {
 public:
  Proc(const fs::path& dir, const std::string& log, Args argv)
      : log_(dir / log) {
    std::vector<char*> args;
    for (auto& a : argv) args.push_back(a.data());
    args.push_back(nullptr);
    const std::string cwd = dir.string();
    const int fd =
        ::open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) throw std::runtime_error("cannot open " + log_.string());
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec. The parent
      // may already be gone by the time the death signal is armed.
      if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != parent ||
          ::chdir(cwd.c_str()) != 0 || ::dup2(fd, 1) < 0 ||
          ::dup2(fd, 2) < 0) {
        ::_exit(127);
      }
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    ::close(fd);
    if (pid_ < 0) throw std::runtime_error("fork failed");
  }
  ~Proc() {
    signal(SIGKILL);
    wait();
  }
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  void signal(int sig) const {
    if (pid_ > 0) ::kill(pid_, sig);
  }

  // Waits for the exit and returns the status as a shell reports it:
  // the exit code, or 128 + the signal that ended the process.
  int wait() {
    int status = 0;
    if (pid_ > 0 && ::waitpid(pid_, &status, 0) == pid_) {
      status_ = WIFEXITED(status) ? WEXITSTATUS(status)
                                  : 128 + WTERMSIG(status);
    }
    pid_ = -1;
    return status_;
  }

  std::string log() const { return slurp(log_); }

  // Polls the log until a complete line contains `needle` and returns
  // that line; nullopt once `until` passes.
  std::optional<std::string> wait_line(const std::string& needle,
                                       Clock::time_point until) const {
    for (;;) {
      const std::string text = log();
      const auto at = text.find(needle);
      const auto eol = at == std::string::npos ? at : text.find('\n', at);
      if (eol != std::string::npos) {
        const auto bol = text.rfind('\n', at);
        const auto from = bol == std::string::npos ? 0 : bol + 1;
        return text.substr(from, eol - from);
      }
      if (Clock::now() > until) return std::nullopt;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

 private:
  fs::path log_;
  pid_t pid_ = -1;
  int status_ = -1;
};

using ProcPtr = std::unique_ptr<Proc>;

Value parse_json(const std::string& text, const std::string& what) {
  Value v;
  std::string err;
  EXPECT_TRUE(obs::json::parse(text, &v, &err)) << what << ": " << err;
  return v;
}

std::vector<Value> parse_jsonl(const fs::path& path) {
  std::vector<Value> lines;
  std::istringstream in(slurp(path));
  for (std::string line; std::getline(in, line);) {
    lines.push_back(parse_json(line, path.string()));
  }
  return lines;
}

// Member `key` of `v` as a string or a number; "" or nullopt when `v`
// is null or the member is absent or of another kind.
std::string str_at(const Value* v, const std::string& key) {
  const Value* m = v != nullptr ? v->find(key) : nullptr;
  return m != nullptr ? m->str_or("") : "";
}
std::optional<double> num_at(const Value* v, const std::string& key) {
  const Value* m = v != nullptr ? v->find(key) : nullptr;
  if (m == nullptr || !m->is_number()) return std::nullopt;
  return m->number;
}

// line[group][key] of a metrics snapshot line.
std::optional<double> metric(const Value& line, const char* group,
                             const std::string& key) {
  return num_at(line.find(group), key);
}

class NodeDrills : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string dir =
        (fs::temp_directory_path() / "mdgan_drill_XXXXXX").string();
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    dir_ = dir;
  }
  void TearDown() override {
    std::error_code ec;
    if (!HasFailure()) {
      fs::remove_all(dir_, ec);
      return;
    }
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      if (entry.path().extension() != ".log") continue;
      std::cerr << "--- " << entry.path().string() << '\n'
                << slurp(entry.path());
    }
  }

  ProcPtr node(const std::string& log, const Args& args) const {
    return std::make_unique<Proc>(dir_, log, join({MDGAN_NODE_BIN}, args));
  }

  ProcPtr merge(const Args& args) const {
    return std::make_unique<Proc>(dir_, "merge.log",
                                  join({MDGAN_TRACE_MERGE_BIN}, args));
  }

  // `mdgan_node --role=server --port=0 args...`. *connect becomes the
  // --connect flag for the port it listens on, or stays empty if it
  // does not listen within 10 s.
  ProcPtr serve(const Args& args, std::string* connect) const {
    auto server = node("server.log", join({"--role=server", "--port=0"}, args));
    const std::string prefix = "listening on 0.0.0.0:";
    const auto line = server->wait_line(prefix, after_s(10.0));
    connect->clear();
    if (line) {
      const auto port =
          std::stoi(line->substr(line->find(prefix) + prefix.size()));
      *connect = "--connect=127.0.0.1:" + std::to_string(port);
    }
    return server;
  }

  // `mdgan_node --role=ROLE --id=ID CONNECT args...`, logging to wID.log
  // for a worker and ROLE.log otherwise.
  ProcPtr dial(const std::string& role, int id, const std::string& connect,
               const Args& args) const {
    const std::string log =
        role == "worker" ? "w" + std::to_string(id) + ".log" : role + ".log";
    return node(log, join({"--role=" + role, "--id=" + std::to_string(id),
                           connect},
                          args));
  }

  fs::path dir_;
};

// `generator_fnv1a=...` from a node's summary line; empty when absent.
std::string checksum(const std::string& log) {
  std::smatch m;
  return std::regex_search(log, m, std::regex("generator_fnv1a=([0-9a-f]+)"))
             ? m[1].str()
             : "";
}

// A two-iteration run's trace holds every round phase and `want`, one
// `round` span per iteration and virtual timestamps; its metrics stream
// ends in a final line that counts every round.
void expect_run_telemetry(const fs::path& dir, const std::string& label,
                          std::set<std::string> want) {
  SCOPED_TRACE(label);
  want.insert({"round", "phase:membership", "phase:broadcast",
               "phase:local", "phase:collect", "phase:swap"});
  const Value trace =
      parse_json(slurp(dir / ("trace_" + label + ".json")), "trace");
  const Value* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int rounds = 0;
  bool any_sim_stamp = false;
  for (const Value& e : events->array) {
    const std::string name = str_at(&e, "name");
    want.erase(name);
    rounds += name == "round" ? 1 : 0;
    any_sim_stamp |= str_at(&e, "ph") == "X" &&
                     num_at(e.find("args"), "sim_t0_s").has_value();
  }
  for (const auto& span : want) ADD_FAILURE() << "trace lacks span " << span;
  EXPECT_EQ(rounds, 2);
  EXPECT_TRUE(any_sim_stamp) << "no span carries a virtual timestamp";

  const auto lines = parse_jsonl(dir / ("metrics_" + label + ".jsonl"));
  ASSERT_GE(lines.size(), 2u) << "want snapshot + final metrics lines";
  EXPECT_EQ(str_at(&lines.back(), "kind"), "final");
  EXPECT_EQ(metric(lines.back(), "counters", "rounds_total"), 2.0);
}

TEST_F(NodeDrills, LoopbackRunMatchesTheSimulator) {
  // Equal checksums also show that telemetry does not perturb training.
  const Args flags = {"--workers=2", "--iters=2"};
  auto sim = node("sim.log", join({"--role=sim", "--trace-out=trace_sim.json",
                                   "--metrics-out=metrics_sim.jsonl",
                                   "--flight-out=flight_sim.jsonl"},
                                  flags));
  ASSERT_EQ(sim->wait(), 0);
  std::string at;
  auto server = serve(join(flags, {"--trace-out=trace_tcp.json",
                                   "--metrics-out=metrics_tcp.jsonl"}),
                      &at);
  ASSERT_FALSE(at.empty()) << "the server never listened";
  auto w1 = dial("worker", 1, at, flags);
  auto w2 = dial("worker", 2, at, flags);
  EXPECT_EQ(w1->wait(), 0);
  EXPECT_EQ(w2->wait(), 0);
  ASSERT_EQ(server->wait(), 0);
  const std::string sim_log = sim->log();
  EXPECT_FALSE(checksum(sim_log).empty());
  EXPECT_EQ(checksum(server->log()), checksum(sim_log))
      << "the TCP run diverged from the simulator";

  // The sim node runs every worker inline, so its trace also holds the
  // worker side of the wire; the TCP server sees only its own side.
  expect_run_telemetry(dir_, "sim",
                       {"local_step", "send:gen_batches", "send:feedback",
                        "recv:gen_batches", "recv:feedback"});
  expect_run_telemetry(dir_, "tcp", {"send:gen_batches", "recv:feedback"});

  // The traffic line comes from the transport accountant; the final
  // metrics line must agree with it byte for byte.
  std::smatch m;
  ASSERT_TRUE(std::regex_search(
      sim_log, m, std::regex(R"(traffic c2w=(\d+) w2c=(\d+) w2w=(\d+) bytes)")))
      << "the sim log lost its traffic summary line";
  const auto lines = parse_jsonl(dir_ / "metrics_sim.jsonl");
  ASSERT_FALSE(lines.empty());
  const Value& last = lines.back();
  const char* links[] = {"c2w", "w2c", "w2w"};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(metric(last, "counters",
                     std::string("bytes_total{link=") + links[i] + "}"),
              std::stod(m[i + 1].str()))
        << links[i];
  }
  EXPECT_EQ(metric(last, "counters", "feedback_bytes_total{link=w2c}"),
            metric(last, "counters", "bytes_total{link=w2c}"))
      << "W->C must carry only feedback bytes";

  EXPECT_EQ(
      merge({"--out=merged_sim.json", "--time=virtual", "trace_sim.json"})
          ->wait(),
      0);
}

TEST_F(NodeDrills, ClusterTraceMergeBindsEveryFlow) {
  // The merge binds every recv:<tag> span to its send:<tag> span; the
  // server's file goes first, its heartbeat offsets align the workers.
  const Args flags = {"--workers=3", "--iters=4", "--k=2",
                      "--heartbeat-ms=100"};
  std::string at;
  auto server = serve(join(flags, {"--trace-out=trace_node0.json"}), &at);
  ASSERT_FALSE(at.empty()) << "the server never listened";
  std::vector<ProcPtr> workers;
  for (int w = 1; w <= 3; ++w) {
    const std::string trace =
        "--trace-out=trace_node" + std::to_string(w) + ".json";
    workers.push_back(dial("worker", w, at, join(flags, {trace})));
  }
  for (auto& w : workers) EXPECT_EQ(w->wait(), 0);
  ASSERT_EQ(server->wait(), 0);
  EXPECT_TRUE(contains(server->log(), "finite=yes"));

  ASSERT_EQ(merge({"--out=trace_merged.json", "trace_node0.json",
                   "trace_node1.json", "trace_node2.json", "trace_node3.json"})
                ->wait(),
            0);
  const Value doc = parse_json(slurp(dir_ / "trace_merged.json"), "merged");
  const Value* st = doc.find("mergeStats");
  const Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  const double bound = num_at(st, "flows_bound").value_or(0.0);
  EXPECT_EQ(num_at(st, "files"), 4.0);
  EXPECT_EQ(num_at(st, "flows_unmatched"), 0.0);
  EXPECT_GT(bound, 0.0);

  // One track per node; one s/f arrow pair per bound flow, each start's
  // id on exactly one send and one recv of the same tag.
  std::set<std::string> tracks;
  std::vector<double> starts;
  double finishes = 0;
  std::map<double, std::vector<std::string>> by_flow;
  for (const Value& e : events->array) {
    const std::string name = str_at(&e, "name");
    const std::string ph = str_at(&e, "ph");
    const Value* args = e.find("args");
    if (name == "process_name") tracks.insert(str_at(args, "name"));
    if (ph == "s") starts.push_back(num_at(&e, "id").value_or(-1.0));
    finishes += ph == "f" ? 1 : 0;
    const double flow = num_at(args, "flow").value_or(0.0);
    if (ph == "X" && flow != 0.0) by_flow[flow].push_back(name);
  }
  for (const char* want : {"node 0 (server)", "node 1 (worker)",
                           "node 2 (worker)", "node 3 (worker)"}) {
    EXPECT_EQ(tracks.count(want), 1u) << "missing track " << want;
  }
  EXPECT_EQ(static_cast<double>(starts.size()), bound);
  EXPECT_EQ(finishes, bound);
  std::set<std::string> bound_recvs;
  for (const double id : starts) {
    std::vector<std::string> sends, recvs;
    for (const auto& name : by_flow[id]) {
      if (name.rfind("send:", 0) == 0) sends.push_back(name);
      if (name.rfind("recv:", 0) == 0) recvs.push_back(name);
    }
    ASSERT_EQ(sends.size(), 1u) << "flow " << id;
    ASSERT_EQ(recvs.size(), 1u) << "flow " << id;
    EXPECT_EQ(sends[0].substr(5), recvs[0].substr(5)) << "flow " << id;
    bound_recvs.insert(recvs[0]);
  }
  for (const char* want :
       {"recv:gen_batches", "recv:feedback", "recv:disc_swap"}) {
    EXPECT_EQ(bound_recvs.count(want), 1u) << want << " has no flow arrow";
  }
}

TEST_F(NodeDrills, AsyncAndScheduledLeaveRunsFinish) {
  // Arrival order over sockets is racy by design (§VII-1), so no
  // checksum: one update per feedback, 2 workers x 3 rounds = 6.
  const Args flags = {"--workers=2", "--iters=3", "--server-mode=async"};
  const std::string want = "mode=async updates=6 finite=yes ";
  auto sim = node("sim.log", join({"--role=sim"}, flags));
  ASSERT_EQ(sim->wait(), 0);
  EXPECT_TRUE(contains(sim->log(), want)) << "async sim run broken";
  std::string at;
  auto server = serve(flags, &at);
  ASSERT_FALSE(at.empty()) << "the server never listened";
  auto w1 = dial("worker", 1, at, flags);
  auto w2 = dial("worker", 2, at, flags);
  EXPECT_EQ(w1->wait(), 0);
  EXPECT_EQ(w2->wait(), 0);
  ASSERT_EQ(server->wait(), 0);
  EXPECT_TRUE(contains(server->log(), want)) << "async server run broken";

  // Worker 2 is away for iteration 2 and rejoins at 3.
  auto elastic = node("elastic.log", {"--role=sim", "--workers=2",
                                      "--iters=4", "--absent=2@2-3"});
  ASSERT_EQ(elastic->wait(), 0);
  EXPECT_TRUE(contains(elastic->log(), "finite=yes"));
}

TEST_F(NodeDrills, KilledWorkerIsEvictedAndRejoinsTraining) {
  // An unannounced kill lands mid-round (the step delay widens the
  // window); a fresh process dialing as worker 3 must be granted a
  // rejoin under a bumped epoch and train the remaining rounds.
  const Args flags = {"--workers=3", "--iters=30",         "--k=2",
                      "--swap=0",    "--recv-timeout=15", "--log-level=info"};
  const Args worker_flags = join(flags, {"--step-delay-ms=60"});
  std::string at;
  auto server = serve(join(flags, {"--metrics-out=metrics.jsonl",
                                   "--flight-out=flight.jsonl"}),
                      &at);
  ASSERT_FALSE(at.empty()) << "the server never listened";
  auto w1 = dial("worker", 1, at, worker_flags);
  auto w2 = dial("worker", 2, at, worker_flags);
  auto w3 = dial("worker", 3, at, worker_flags);
  ASSERT_TRUE(server->wait_line("all 3 workers connected", after_s(20.0)))
      << "kill-drill rendezvous never completed";
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  w3->signal(SIGKILL);
  // A hello for a still-connected id is a rejected duplicate, so the
  // restart waits for the server to see the EOF.
  server->wait_line("node 3 disconnected", after_s(5.0));
  auto rejoin = dial("rejoin", 3, at, worker_flags);
  EXPECT_EQ(rejoin->wait(), 0);
  EXPECT_EQ(w3->wait(), 137);
  EXPECT_EQ(w1->wait(), 0);
  EXPECT_EQ(w2->wait(), 0);
  ASSERT_EQ(server->wait(), 0);

  const std::string log = server->log();
  EXPECT_TRUE(contains(log, "disconnected, mapping to fail-stop"));
  EXPECT_TRUE(contains(log, "granting rejoin to worker 3"));
  EXPECT_TRUE(contains(log, "finite=yes"));
  EXPECT_TRUE(contains(rejoin->log(), "granted=yes"));
  EXPECT_TRUE(contains(rejoin->log(), "trained from="));
  EXPECT_TRUE(contains(w1->log(), "death notice for worker 3"));
  EXPECT_TRUE(contains(w2->log(), "death notice for worker 3"));

  const auto lines = parse_jsonl(dir_ / "metrics.jsonl");
  ASSERT_FALSE(lines.empty());
  for (const char* counter : {"peer_deaths_total", "rejoins_total",
                              "rejoin_admitted_total",
                              "readmitted_feedback_total"}) {
    EXPECT_GE(metric(lines.back(), "counters", counter).value_or(0.0), 1.0)
        << counter;
  }
  EXPECT_GE(metric(lines.back(), "gauges", "membership_epoch").value_or(0.0),
            2.0);

  // The flight recorder tells the same story in causal order: each
  // kind's first event for node 3, found scanning backwards.
  const auto events = parse_jsonl(dir_ / "flight.jsonl");
  ASSERT_FALSE(events.empty()) << "the flight recorder left no events";
  std::map<std::string, std::size_t> first;
  bool any_epoch = false;
  for (std::size_t i = events.size(); i-- > 0;) {
    const std::string kind = str_at(&events[i], "kind");
    if (num_at(&events[i], "node") == 3.0) first[kind] = i;
    any_epoch |= kind == "epoch";
  }
  for (const char* kind : {"death", "rejoin_grant", "admission"}) {
    ASSERT_EQ(first.count(kind), 1u) << "no " << kind << " event for node 3";
  }
  EXPECT_LT(first["death"], first["rejoin_grant"]);
  EXPECT_LT(first["rejoin_grant"], first["admission"]);
  EXPECT_TRUE(any_epoch) << "no epoch bump recorded";
}

TEST_F(NodeDrills, PartitionInsideTheGraceWindowIsReseated) {
  // Stopped past the suspect threshold, resumed inside the grace
  // window: suspected (and so shown by a live !stats probe), never dead.
  const Args flags = {"--workers=2",       "--iters=40",
                      "--k=2",             "--swap=0",
                      "--recv-timeout=20", "--heartbeat-ms=100",
                      "--suspect-ms=400",  "--grace-ms=6000",
                      "--log-level=info"};
  const Args worker_flags = join(flags, {"--step-delay-ms=40"});
  std::string at;
  auto server = serve(join(flags, {"--metrics-out=metrics.jsonl"}), &at);
  ASSERT_FALSE(at.empty()) << "the server never listened";
  auto w1 = dial("worker", 1, at, worker_flags);
  auto w2 = dial("worker", 2, at, worker_flags);
  ASSERT_TRUE(server->wait_line("all 2 workers connected", after_s(20.0)))
      << "partition-drill rendezvous never completed";
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  w2->signal(SIGSTOP);
  const auto resume_at = after_s(1.2);
  ProcPtr stats;
  if (server->wait_line("silent past the suspect threshold", resume_at)) {
    stats = node("stats.log", {"--role=stats", at});
    stats->wait_line("{\"kind\":\"stats\"", resume_at);
  }
  std::this_thread::sleep_until(resume_at);
  w2->signal(SIGCONT);
  EXPECT_EQ(w1->wait(), 0);
  EXPECT_EQ(w2->wait(), 0);
  ASSERT_EQ(server->wait(), 0);

  const std::string log = server->log();
  EXPECT_TRUE(contains(log, "silent past the suspect threshold"));
  EXPECT_TRUE(contains(log, "re-seated"));
  EXPECT_TRUE(contains(log, "finite=yes"));
  // Teardown EOFs at exit are ordinary fail-stops and take neither path.
  EXPECT_FALSE(contains(log, "silent past the grace window"));
  EXPECT_FALSE(contains(log, "granting rejoin"));
  const auto lines = parse_jsonl(dir_ / "metrics.jsonl");
  ASSERT_FALSE(lines.empty());
  const Value& last = lines.back();
  EXPECT_GE(metric(last, "counters", "suspects_total").value_or(0.0), 1.0);
  EXPECT_EQ(metric(last, "counters", "rejoins_total").value_or(0.0), 0.0);
  const Value* hist = last.find("histograms");
  const Value* rtt =
      hist != nullptr ? hist->find("heartbeat_rtt_seconds") : nullptr;
  EXPECT_GE(num_at(rtt, "count").value_or(0.0), 1.0)
      << "no heartbeat RTTs were observed";

  ASSERT_NE(stats, nullptr) << "no suspicion within the stop to probe";
  ASSERT_EQ(stats->wait(), 0);
  const Value snap = parse_json(stats->log(), "!stats reply");
  const Value* workers = snap.find("workers");
  ASSERT_NE(workers, nullptr);
  int seen = 0;
  for (const Value& w : workers->array) {
    if (num_at(&w, "id") != 2.0) continue;
    ++seen;
    const Value* alive = w.find("alive");
    EXPECT_TRUE(alive != nullptr && alive->is_bool() && alive->boolean);
    EXPECT_EQ(str_at(&w, "liveness"), "suspect");
  }
  EXPECT_EQ(seen, 1) << "worker 2 missing from the !stats reply";
}

}  // namespace
}  // namespace mdgan
