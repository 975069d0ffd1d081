// Umbrella header for the simulated cluster plus the worker fan-out
// helper the training loops drive their per-iteration worker work
// through. for_each_worker runs on ThreadPool::global(), the same pool
// the worker bodies' tensor kernels nest their parallel_for on; a
// waiting caller there never blocks a chunk that still needs a thread,
// so the nesting cannot deadlock (common/thread_pool.hpp).
#pragma once

#include <functional>
#include <vector>

#include "dist/compression.hpp"
#include "dist/fault.hpp"
#include "dist/link_model.hpp"
#include "dist/sim_network.hpp"
#include "dist/tcp_network.hpp"
#include "dist/transport.hpp"

namespace mdgan::dist {

// Applies fn to every id: a single id runs inline, more fan out over
// the global pool, and the call blocks until all ids are done. The
// first exception thrown by any fn is rethrown after every task has
// finished, so no worker body is ever abandoned mid-flight.
void for_each_worker(const std::vector<int>& ids,
                     const std::function<void(int)>& fn);

// Snapshot of every node's simulated clock. Take one before and one
// after a round and subtract to get the round's per-node elapsed time;
// critical_path() of the difference is the round's simulated duration
// (for the MD-GAN round: max over workers, then the server's apply,
// which the server clock already includes because it consumes every
// feedback). All zeros under the zero link model.
struct SimTimes {
  double server = 0.0;
  std::vector<double> workers;  // workers[i] is worker i+1's clock

  // Slowest node in the snapshot (or, for a difference, the slowest
  // node across the interval).
  double critical_path() const;
  double max_worker() const;

  // Element-wise difference a - b (same cluster size required).
  friend SimTimes operator-(const SimTimes& a, const SimTimes& b);
};

// Reads the current clocks off the transport (crashed workers report
// the clock they froze at; a TcpNetwork reports its one measured clock
// for every node).
SimTimes sim_times_of(const Transport& net);

}  // namespace mdgan::dist
