#include "dist/cluster.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace mdgan::dist {

void for_each_worker(const std::vector<int>& ids,
                     const std::function<void(int)>& fn) {
  if (ids.size() < 2) {
    for (int id : ids) fn(id);
    return;
  }
  // Each chunk runs all of its ids and then rethrows its first failure;
  // the pool rethrows the lowest failing chunk's, which is therefore
  // the first failure in id order.
  ThreadPool::global().parallel_for(
      ids.size(), [&](std::size_t begin, std::size_t end) {
        std::exception_ptr first;
        for (std::size_t i = begin; i < end; ++i) {
          try {
            fn(ids[i]);
          } catch (...) {
            if (!first) first = std::current_exception();
          }
        }
        if (first) std::rethrow_exception(first);
      });
}

double SimTimes::max_worker() const {
  double out = 0.0;
  for (double t : workers) out = std::max(out, t);
  return out;
}

double SimTimes::critical_path() const {
  return std::max(server, max_worker());
}

SimTimes operator-(const SimTimes& a, const SimTimes& b) {
  if (a.workers.size() != b.workers.size()) {
    throw std::invalid_argument("SimTimes: cluster sizes differ");
  }
  SimTimes out;
  out.server = a.server - b.server;
  out.workers.resize(a.workers.size());
  for (std::size_t i = 0; i < a.workers.size(); ++i) {
    out.workers[i] = a.workers[i] - b.workers[i];
  }
  return out;
}

SimTimes sim_times_of(const Transport& net) {
  SimTimes out;
  out.server = net.sim_time(kServerId);
  out.workers.resize(net.n_workers());
  for (std::size_t w = 1; w <= net.n_workers(); ++w) {
    out.workers[w - 1] = net.sim_time(static_cast<int>(w));
  }
  return out;
}

}  // namespace mdgan::dist
