// Tests for the work-stealing task pool (src/runtime/): full coverage
// under skewed task sizes, exception propagation to the joining thread,
// and nested ParallelFor (helping joins must never deadlock).
#include "runtime/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace iflex {
namespace runtime {
namespace {

TEST(TaskPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPoolTest, SkewedTasksCompleteAndSpreadAcrossThreads) {
  TaskPool pool(4);
  std::atomic<uint64_t> sum{0};
  std::mutex mu;
  std::set<std::thread::id> tids;
  pool.ParallelFor(64, [&](size_t i) {
    // Index 0 is ~100x the rest: work-stealing must keep the remaining
    // indices flowing on the other threads meanwhile.
    auto busy = std::chrono::microseconds(i == 0 ? 20000 : 200);
    auto until = std::chrono::steady_clock::now() + busy;
    while (std::chrono::steady_clock::now() < until) {
    }
    sum.fetch_add(i);
    std::lock_guard<std::mutex> lock(mu);
    tids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(sum.load(), 64u * 63u / 2);
  EXPECT_GE(tids.size(), 2u);
}

TEST(TaskPoolTest, ParallelForPropagatesExceptionToJoiningThread) {
  TaskPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](size_t i) {
                                  if (i == 13) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool survives a failed batch.
  std::atomic<int> ok{0};
  pool.ParallelFor(10, [&](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(TaskPoolTest, NestedParallelForDoesNotDeadlock) {
  TaskPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);

  // Three levels through the free functions, the nesting production uses:
  // simulations (ParallelMap) -> a predicate's rules (ParallelMap) ->
  // one rule's morsels (ParallelFor).
  count.store(0);
  std::vector<int> sims = ParallelMap<int>(&pool, 4, [&](size_t) {
    std::vector<int> rules = ParallelMap<int>(&pool, 3, [&](size_t) {
      ParallelFor(&pool, 4, [&](size_t) { count.fetch_add(1); });
      return 1;
    });
    int done = 0;
    for (int r : rules) done += r;
    return done;
  });
  EXPECT_EQ(sims, (std::vector<int>{3, 3, 3, 3}));
  EXPECT_EQ(count.load(), 4 * 3 * 4);
}

TEST(TaskPoolTest, NullAndSingleThreadPoolsRunSerially) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));

  TaskPool one(1);
  EXPECT_EQ(one.thread_count(), 1u);
  order.clear();
  ParallelFor(&one, 5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(TaskPoolTest, ParallelMapPreservesIndexOrder) {
  TaskPool pool(4);
  std::vector<size_t> out = ParallelMap<size_t>(&pool, 100, [](size_t i) {
    if (i % 7 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return i * i;
  });
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(TaskPoolTest, SubmitAndHelpUntilDrainExternalTasks) {
  TaskPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  // Main thread is not a pool worker; helping from outside must work too.
  pool.HelpUntil([&done] { return done.load() == 50; });
  EXPECT_EQ(done.load(), 50);
}

}  // namespace
}  // namespace runtime
}  // namespace iflex
