#include "dist/fault.hpp"

#include <algorithm>
#include <stdexcept>

namespace mdgan::dist {

namespace {

void check_transition(std::int64_t iter, int worker) {
  if (iter < 1) {
    throw std::invalid_argument("AvailabilitySchedule: iter < 1");
  }
  if (worker < 1) {
    throw std::invalid_argument("AvailabilitySchedule: worker < 1");
  }
}

}  // namespace

AvailabilitySchedule AvailabilitySchedule::evenly_spaced_crashes(
    std::int64_t total_iters, std::size_t n_workers) {
  if (total_iters < 1) {
    throw std::invalid_argument("AvailabilitySchedule: total_iters < 1");
  }
  if (n_workers == 0) {
    throw std::invalid_argument("AvailabilitySchedule: n_workers == 0");
  }
  const std::int64_t period =
      std::max<std::int64_t>(1, total_iters / static_cast<std::int64_t>(
                                                  n_workers));
  AvailabilitySchedule s;
  for (std::size_t w = 1; w <= n_workers; ++w) {
    s.add_leave(period * static_cast<std::int64_t>(w), static_cast<int>(w));
  }
  return s;
}

void AvailabilitySchedule::add_leave(std::int64_t iter, int worker) {
  check_transition(iter, worker);
  transitions_[worker][iter] = false;
}

void AvailabilitySchedule::add_rejoin(std::int64_t iter, int worker) {
  check_transition(iter, worker);
  transitions_[worker][iter] = true;
}

void AvailabilitySchedule::add_absence(int worker, std::int64_t from,
                                       std::int64_t until) {
  if (until > 0 && until <= from) {
    throw std::invalid_argument(
        "AvailabilitySchedule: empty absence interval");
  }
  add_leave(from, worker);
  if (until > 0) add_rejoin(until, worker);
}

void AvailabilitySchedule::add_crash_rejoin(int worker, std::int64_t from,
                                            std::int64_t until) {
  if (until <= from) {
    throw std::invalid_argument(
        "AvailabilitySchedule: crash-rejoin needs until > from");
  }
  add_absence(worker, from, until);
  crash_rejoins_[worker][from] = until;
}

bool AvailabilitySchedule::loses_state_at(int worker,
                                          std::int64_t iter) const {
  const auto it = crash_rejoins_.find(worker);
  if (it == crash_rejoins_.end()) return false;
  return it->second.count(iter) != 0;
}

bool AvailabilitySchedule::state_rejoin_at(int worker,
                                           std::int64_t iter) const {
  const auto it = crash_rejoins_.find(worker);
  if (it == crash_rejoins_.end()) return false;
  for (const auto& [from, until] : it->second) {
    if (until == iter) return true;
  }
  return false;
}

bool AvailabilitySchedule::within_crash_rejoin(int worker,
                                               std::int64_t iter) const {
  const auto it = crash_rejoins_.find(worker);
  if (it == crash_rejoins_.end()) return false;
  for (const auto& [from, until] : it->second) {
    if (from <= iter && iter <= until) return true;
  }
  return false;
}

bool AvailabilitySchedule::present(int worker, std::int64_t iter) const {
  const auto it = transitions_.find(worker);
  if (it == transitions_.end()) return true;
  // State = value of the greatest transition at or before `iter`;
  // workers start present.
  const auto& t = it->second;
  auto after = t.upper_bound(iter);
  if (after == t.begin()) return true;
  return std::prev(after)->second;
}

bool AvailabilitySchedule::returns_after(int worker,
                                         std::int64_t iter) const {
  const auto it = transitions_.find(worker);
  if (it == transitions_.end()) return true;  // always present
  const auto& t = it->second;
  bool state = present(worker, iter);
  std::int64_t prev = iter;
  for (auto next = t.upper_bound(iter); next != t.end(); ++next) {
    // Present across the gap (prev, next) — i.e. at some iteration
    // strictly between the two transition points?
    if (state && next->first > prev + 1) return true;
    state = next->second;
    if (state) return true;  // present from next->first on
    prev = next->first;
  }
  return state;  // final state holds for every iteration > prev
}

}  // namespace mdgan::dist
