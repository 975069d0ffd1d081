#include "obs/sink.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>

#include "common/log.hpp"

namespace mdgan::obs {

Sink::Sink(SinkConfig cfg) : cfg_(std::move(cfg)) {
  tracer_.set_enabled(!cfg_.trace_path.empty());
  tracer_.set_capture_compute(cfg_.compute_spans);
  flight_.set_enabled(!cfg_.flight_path.empty());
  // Overflow is never silent: both bounded buffers surface their losses
  // as registry counters, visible in every metrics snapshot.
  spans_dropped_total_ = &registry_.counter("spans_dropped_total");
  flight_.set_drop_counter(&registry_.counter("events_dropped_total"));
}

Sink::~Sink() { finish(); }

void Sink::flush_span_drops() {
  const std::uint64_t dropped = tracer_.dropped();
  if (dropped > spans_dropped_flushed_) {
    spans_dropped_total_->inc(dropped - spans_dropped_flushed_);
    spans_dropped_flushed_ = dropped;
  }
}

void Sink::write_metrics_line(const char* kind, std::int64_t round,
                              double sim_s) {
  if (cfg_.metrics_path.empty() || metrics_open_failed_) return;
  if (!metrics_out_.is_open()) {
    metrics_out_.open(cfg_.metrics_path, std::ios::trunc);
    if (!metrics_out_) {
      metrics_open_failed_ = true;
      MDGAN_LOG_ERROR << "obs: cannot open metrics file "
                      << cfg_.metrics_path;
      return;
    }
  }
  registry_.write_snapshot_json(metrics_out_, kind, round,
                                static_cast<double>(tracer_.now_ns()) / 1e9,
                                sim_s);
  metrics_out_ << '\n';
  metrics_out_.flush();
}

void Sink::refresh_fatal_snapshot(std::int64_t round, double sim_s) {
  if (cfg_.metrics_path.empty()) return;  // nowhere to append it
  std::ostringstream line;
  registry_.write_snapshot_json(line, "fatal", round,
                                static_cast<double>(tracer_.now_ns()) / 1e9,
                                sim_s);
  line << '\n';
  const std::string s = line.str();
  if (s.size() > kFatalBufBytes) return;  // keep the last one that fit
  // Fill the slot the handler is NOT reading, then publish it.
  const int slot = 1 - std::max(fatal_pub_.load(std::memory_order_relaxed), 0);
  std::memcpy(fatal_buf_[slot], s.data(), s.size());
  fatal_len_[slot] = s.size();
  fatal_pub_.store(slot, std::memory_order_release);
}

void Sink::round_completed(std::int64_t iter, double sim_s) {
  std::lock_guard<std::mutex> lock(mu_);
  last_round_ = iter;
  last_sim_s_ = sim_s;
  flush_span_drops();
  if (cfg_.metrics_interval > 0 && iter % cfg_.metrics_interval == 0) {
    write_metrics_line("snapshot", iter, sim_s);
  }
  refresh_fatal_snapshot(iter, sim_s);
}

void Sink::finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  finished_ = true;
  flush_span_drops();
  write_metrics_line("final", last_round_, last_sim_s_);
  if (metrics_out_.is_open()) metrics_out_.close();
  if (!cfg_.trace_path.empty()) {
    tracer_.write_chrome_trace_file(cfg_.trace_path);
  }
  if (!cfg_.flight_path.empty()) {
    std::ofstream os(cfg_.flight_path, std::ios::trunc);
    if (os) {
      flight_.write_jsonl(os);
    } else {
      MDGAN_LOG_ERROR << "obs: cannot open flight-recorder file "
                      << cfg_.flight_path;
    }
  }
}

void Sink::fatal_dump(int sig) {
  (void)sig;
  // Async-signal-safe by construction: open(2), write(2), close(2) and
  // the recorder's manual formatting — no locks (the dying thread may
  // hold mu_), no heap, no stdio.
  if (!cfg_.flight_path.empty()) {
    const int fd = ::open(cfg_.flight_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      flight_.dump_to_fd(fd);
      ::close(fd);
    }
  }
  const int slot = fatal_pub_.load(std::memory_order_acquire);
  if (!cfg_.metrics_path.empty() && slot >= 0) {
    const int fd = ::open(cfg_.metrics_path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      std::size_t done = 0;
      const std::size_t n = fatal_len_[slot];
      while (done < n) {
        const ssize_t r = ::write(fd, fatal_buf_[slot] + done, n - done);
        if (r <= 0) break;
        done += static_cast<std::size_t>(r);
      }
      ::close(fd);
    }
  }
}

namespace {
std::atomic<Sink*> g_sink{nullptr};

void fatal_handler(int sig) {
  Sink* s = g_sink.load(std::memory_order_acquire);
  if (s != nullptr) s->fatal_dump(sig);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}
}  // namespace

Sink* install_global_sink(Sink* sink) {
  return g_sink.exchange(sink, std::memory_order_acq_rel);
}

Sink* global_sink() { return g_sink.load(std::memory_order_acquire); }

Tracer* global_tracer() {
  Sink* s = g_sink.load(std::memory_order_acquire);
  return s != nullptr ? &s->tracer() : nullptr;
}

void install_fatal_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = fatal_handler;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    ::sigaction(sig, &sa, nullptr);
  }
}

}  // namespace mdgan::obs
