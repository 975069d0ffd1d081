#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mdgan {
namespace {

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleThreadDegradesToSerial) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) order.push_back(static_cast<int>(i));
  });
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ThreadPool, ParallelForPropagatesChunkException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t b, std::size_t) {
                                   if (b == 0) {
                                     throw std::runtime_error("chunk0");
                                   }
                                 }),
               std::runtime_error);
  // No chunk outlives the call: the slow ones have all finished by the
  // time chunk 0's exception reaches the caller.
  ThreadPool wide(4);
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<int> finished{0};
    EXPECT_THROW(wide.parallel_for(4,
                                   [&](std::size_t b, std::size_t) {
                                     if (b == 0) {
                                       throw std::runtime_error("chunk0");
                                     }
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(20));
                                     ++finished;
                                   }),
                 std::runtime_error);
    EXPECT_EQ(finished.load(), 3) << "repetition " << rep;
  }
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingChunk) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(4, [](std::size_t b, std::size_t) {
      if (b == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("chunk1");
      }
      if (b == 3) throw std::runtime_error("chunk3");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk1");
  }
}

// Runs body, and aborts the process if it has not returned within
// `limit`, so a deadlocked pool fails the test instead of hanging ctest.
template <typename Body>
void with_watchdog(std::chrono::seconds limit, Body body) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, limit, [&] { return done; })) {
      std::fprintf(stderr, "watchdog: still running after %lld s\n",
                   static_cast<long long>(limit.count()));
      std::abort();
    }
  });
  body();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  watchdog.join();
}

TEST(ThreadPool, NestedParallelForOnOnePoolFinishes) {
  ThreadPool pool(4);
  with_watchdog(std::chrono::seconds(30), [&] {
    for (int rep = 0; rep < 50; ++rep) {
      std::atomic<std::size_t> covered{0};
      pool.parallel_for(8, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          pool.parallel_for(1000, 1, [&](std::size_t ib, std::size_t ie) {
            covered += ie - ib;
          });
        }
      });
      EXPECT_EQ(covered.load(), 8u * 1000u) << "repetition " << rep;
    }
  });
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

}  // namespace
}  // namespace mdgan
