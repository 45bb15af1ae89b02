// Tests for the task pool (src/runtime/): full coverage under skewed
// task sizes, exception propagation to the joining thread, nested
// ParallelFor (helping joins must never deadlock), several callers on one
// pool, and idle workers that sleep instead of spinning.
#include "runtime/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <sys/resource.h>
#include <thread>
#include <vector>

namespace iflex {
namespace runtime {
namespace {

TEST(TaskPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(&pool, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPoolTest, SkewedTasksCompleteAndSpreadAcrossThreads) {
  TaskPool pool(4);
  std::atomic<uint64_t> sum{0};
  std::mutex mu;
  std::set<std::thread::id> tids;
  ParallelFor(&pool, 64, [&](size_t i) {
    // Index 0 is ~100x the rest: chunked claiming must keep the remaining
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
  EXPECT_THROW(ParallelFor(&pool, 100,
                           [](size_t i) {
                             if (i == 13) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // A failure skips the rest of the batch: a thread's next claim comes
  // after its failed chunk settled, so each of the 4 threads runs at most
  // one chunk of a batch whose every index throws.
  std::atomic<int> attempts{0};
  EXPECT_THROW(ParallelFor(
                   &pool, 200,
                   [&](size_t) {
                     attempts.fetch_add(1);
                     throw std::runtime_error("every index fails");
                   },
                   nullptr, /*grain=*/1),
               std::runtime_error);
  EXPECT_GE(attempts.load(), 1);
  EXPECT_LE(attempts.load(), 4);
  // The pool survives a failed batch.
  std::atomic<int> ok{0};
  ParallelFor(&pool, 10, [&](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

// stop is polled before every chunk: once an index raises it, every
// thread's next claim is skipped, so each runs at most one index.
TEST(TaskPoolTest, StopSkipsTheRestOfTheBatch) {
  for (size_t threads : {1, 4}) {
    TaskPool pool(threads);
    std::atomic<bool> stop{false};
    std::atomic<size_t> ran{0};
    ParallelFor(
        &pool, 200,
        [&](size_t) {
          ran.fetch_add(1);
          stop.store(true);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        },
        [&] { return stop.load(); }, /*grain=*/1);
    EXPECT_GE(ran.load(), 1u) << threads;
    EXPECT_LE(ran.load(), threads) << threads;
  }
}

TEST(TaskPoolTest, NestedParallelForDoesNotDeadlock) {
  TaskPool pool(2);
  std::atomic<int> count{0};
  ParallelFor(&pool, 8, [&](size_t) {
    ParallelFor(&pool, 8, [&](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);

  // As production nests them: simulations (ParallelFor), each running a
  // predicate's rules in order, each rule fanning out its morsels
  // (ParallelFor).
  count.store(0);
  std::vector<int> sims(4, 0);
  ParallelFor(&pool, sims.size(), [&](size_t s) {
    for (int rule = 0; rule < 3; ++rule) {
      ParallelFor(&pool, 4, [&](size_t) { count.fetch_add(1); });
      ++sims[s];
    }
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

// Sessions of iflexd share one pool from their connection threads: every
// caller's nested batches must run every index exactly once.
TEST(TaskPoolTest, ConcurrentCallersShareOnePool) {
  TaskPool pool(3);
  constexpr size_t kCallers = 4;
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 8;
  std::vector<std::atomic<int>> hits(kCallers * kOuter * kInner);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      ParallelFor(&pool, kOuter, [&](size_t i) {
        ParallelFor(&pool, kInner, [&](size_t j) {
          hits[(c * kOuter + i) * kInner + j].fetch_add(1);
        });
      });
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "caller " << k / (kOuter * kInner)
                                 << " i " << k / kInner % kOuter << " j "
                                 << k % kInner;
  }
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Two indices that sleep leave two of the four threads with nothing to
// claim: they must sleep too, not spin, so the call costs next to no CPU.
// Sleeping threads burn no CPU on a loaded host or under a sanitizer
// either, so the bound holds there as well.
TEST(TaskPoolTest, IdleWorkersSleepWhileABatchRuns) {
  TaskPool pool(4);
  const double before = ProcessCpuSeconds();
  ParallelFor(&pool, 2, [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  });
  EXPECT_LT(ProcessCpuSeconds() - before, 0.05);
}

}  // namespace
}  // namespace runtime
}  // namespace iflex
