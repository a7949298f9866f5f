// Unit and property tests for the thread-pool substrate (polarice::par).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "par/parallel_for.h"
#include "par/task_group.h"
#include "par/thread_pool.h"

namespace pp = polarice::par;

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(pp::ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  pp::ThreadPool pool(4);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitWithArguments) {
  pp::ThreadPool pool(2);
  auto f = pool.submit([](int a, int b) { return a + b; }, 40, 2);
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptionsThroughFuture) {
  pp::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllExecute) {
  pp::ThreadPool pool(8);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, WaitIdleBlocksUntilDrained) {
  pp::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    pp::ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.submit([&counter] { ++counter; });
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, HardwareAtLeastOne) {
  EXPECT_GE(pp::ThreadPool::hardware(), 1u);
}

TEST(ParallelFor, NullPoolRunsSequentially) {
  std::vector<int> hits(100, 0);
  pp::parallel_for(nullptr, 0, 100, [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  pp::ThreadPool pool(2);
  int calls = 0;
  pp::parallel_for(&pool, 5, 5, [&](std::size_t) { ++calls; });
  pp::parallel_for(&pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesBodyException) {
  pp::ThreadPool pool(4);
  EXPECT_THROW(pp::parallel_for(&pool, 0, 100,
                                [](std::size_t i) {
                                  if (i == 50) throw std::runtime_error("x");
                                }),
               std::runtime_error);
}

// Property: parallel_for touches every index exactly once, for a sweep of
// worker counts and grain sizes.
class ParallelForSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelForSweep, CoversEveryIndexExactlyOnce) {
  const auto [workers, grain] = GetParam();
  pp::ThreadPool pool(workers);
  std::vector<std::atomic<int>> hits(1234);
  pp::parallel_for(
      &pool, 0, hits.size(), [&](std::size_t i) { ++hits[i]; },
      static_cast<std::size_t>(grain));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndGrains, ParallelForSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(0, 1, 7, 100, 5000)));

namespace {
/// Distinct threads that ran the body of one parallel_for over `pool`.
std::set<std::thread::id> threads_running(pp::ThreadPool& pool) {
  std::mutex mutex;
  std::set<std::thread::id> seen;
  pp::parallel_for(
      &pool, 0, 64,
      [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        const std::scoped_lock lock(mutex);
        seen.insert(std::this_thread::get_id());
      },
      /*grain=*/1);
  return seen;
}
}  // namespace

// The caller drains chunks alongside the pool: k workers + 1 threads.
TEST(ParallelFor, RunsOnAtMostPoolSizePlusCallerThreads) {
  for (std::size_t k : {1u, 2u, 3u, 4u}) {
    pp::ThreadPool pool(k);
    EXPECT_LE(threads_running(pool).size(), k + 1) << "pool of " << k;
  }
}

// Issued from a pool task, the caller is itself a worker: at most k
// threads. AutoLabelStage's kPool policy relies on this to run `workers`
// threads, not workers + 1.
TEST(ParallelFor, FromPoolTaskRunsOnAtMostPoolSizeThreads) {
  for (std::size_t k : {2u, 3u, 4u}) {
    pp::ThreadPool pool(k);
    const auto seen =
        pool.submit([&] { return threads_running(pool); }).get();
    EXPECT_LE(seen.size(), k) << "pool of " << k;
    EXPECT_FALSE(seen.contains(std::this_thread::get_id()));
  }
}

TEST(ParallelMap, ResultsInOrder) {
  pp::ThreadPool pool(4);
  const auto out = pp::parallel_map<int>(
      &pool, 10, 20, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], (i + 10) * (i + 10));
}

TEST(ParallelReduce, MatchesSequentialSum) {
  pp::ThreadPool pool(8);
  const auto sum = pp::parallel_reduce<long>(
      &pool, 0, 100000, 0L, [](std::size_t i) { return long(i); },
      [](long a, long b) { return a + b; });
  EXPECT_EQ(sum, 100000L * 99999L / 2);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  pp::ThreadPool pool(2);
  const auto v = pp::parallel_reduce<int>(
      &pool, 3, 3, 99, [](std::size_t) { return 1; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(v, 99);
}

TEST(TaskGroup, JoinsAllForkedTasks) {
  pp::ThreadPool pool(4);
  std::atomic<int> counter{0};
  {
    pp::TaskGroup group(pool);
    for (int i = 0; i < 50; ++i) group.run([&counter] { ++counter; });
    group.wait();
    EXPECT_EQ(counter.load(), 50);
  }
}

TEST(TaskGroup, WaitRethrowsFirstException) {
  pp::ThreadPool pool(2);
  pp::TaskGroup group(pool);
  group.run([] { throw std::logic_error("first"); });
  EXPECT_THROW(group.wait(), std::logic_error);
}

TEST(TaskGroup, DestructorJoinsWithoutThrowing) {
  pp::ThreadPool pool(2);
  std::atomic<int> counter{0};
  {
    pp::TaskGroup group(pool);
    group.run([&counter] { ++counter; });
    group.run([] { throw std::runtime_error("swallowed"); });
  }  // must not terminate
  EXPECT_EQ(counter.load(), 1);
}

// Scaling smoke test: with real work, more threads must not be slower than
// one thread by more than bookkeeping noise. (Not a strict speedup assert,
// and a generous margin: on a 1-core CI host the 4 workers only add
// scheduling overhead, and the test is RUN_SERIAL so other suites cannot
// steal the clock.)
TEST(ThreadPool, ParallelNotSlowerThanSequentialOnRealWork) {
  const std::size_t n = 1 << 22;
  std::vector<double> data(n, 1.000001);
  auto work = [&](std::size_t i) {
    double x = data[i];
    for (int k = 0; k < 8; ++k) x = x * x - 0.5;
    data[i] = x;
  };
  const auto run = [&](pp::ThreadPool* pool) {
    const auto t0 = std::chrono::steady_clock::now();
    pp::parallel_for(pool, 0, n, work);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  const double seq = run(nullptr);
  pp::ThreadPool pool(4);
  const double par = run(&pool);
  EXPECT_LT(par, seq * 2.0);
}

// Regression: a non-identity init must be folded exactly once, not once per
// chunk (the seed seeded every chunk's accumulator with init and then folded
// init again in the final combine).
TEST(ParallelReduce, NonZeroInitCountedExactlyOnce) {
  pp::ThreadPool pool(8);
  const auto sum = pp::parallel_reduce<long>(
      &pool, 0, 10000, 1000L, [](std::size_t i) { return long(i); },
      [](long a, long b) { return a + b; });
  EXPECT_EQ(sum, 1000L + 10000L * 9999L / 2);
}

TEST(ParallelReduce, NonZeroInitMatchesSequentialForAnyWorkerCount) {
  for (const int workers : {1, 2, 3, 8}) {
    pp::ThreadPool pool(workers);
    const auto sum = pp::parallel_reduce<long>(
        &pool, 5, 777, 42L, [](std::size_t i) { return long(i * i); },
        [](long a, long b) { return a + b; });
    long want = 42;
    for (std::size_t i = 5; i < 777; ++i) want += long(i * i);
    EXPECT_EQ(sum, want) << "workers=" << workers;
  }
}

TEST(ParallelFor2D, CoversEveryCellExactlyOnce) {
  pp::ThreadPool pool(4);
  constexpr std::size_t kRows = 37, kCols = 53;
  std::vector<std::atomic<int>> hits(kRows * kCols);
  pp::parallel_for_2d(&pool, kRows, kCols, [&](std::size_t i, std::size_t j) {
    ++hits[i * kCols + j];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor2D, ExplicitTilesCoverRaggedEdges) {
  pp::ThreadPool pool(4);
  constexpr std::size_t kRows = 10, kCols = 23;
  std::vector<std::atomic<int>> hits(kRows * kCols);
  pp::parallel_for_2d(
      &pool, kRows, kCols,
      [&](std::size_t i, std::size_t j) { ++hits[i * kCols + j]; },
      /*tile_rows=*/3, /*tile_cols=*/7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor2D, NullPoolAndEmptyGrid) {
  int calls = 0;
  pp::parallel_for_2d(nullptr, 4, 4, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 16);
  pp::parallel_for_2d(nullptr, 0, 9, [&](std::size_t, std::size_t) { ++calls; });
  pp::parallel_for_2d(nullptr, 9, 0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 16);
}

TEST(ParallelFor2D, PropagatesBodyException) {
  pp::ThreadPool pool(4);
  EXPECT_THROW(
      pp::parallel_for_2d(&pool, 16, 16,
                          [](std::size_t i, std::size_t j) {
                            if (i == 7 && j == 7)
                              throw std::runtime_error("tile");
                          }),
      std::runtime_error);
}

// The latch-based join must allow nested parallel_for from inside pool tasks
// (the caller helps drain the queue instead of sleeping on a future).
TEST(ParallelFor, NestedFromPoolTaskDoesNotDeadlock) {
  pp::ThreadPool pool(2);
  std::atomic<int> counter{0};
  pp::parallel_for(
      &pool, 0, 4,
      [&](std::size_t) {
        pp::parallel_for(
            &pool, 0, 8, [&](std::size_t) { ++counter; }, 1);
      },
      1);
  EXPECT_EQ(counter.load(), 32);
}

// Work-stealing stress: deeply nested, heavily unbalanced parallel_for
// trees. Outer iterations enqueue wildly different amounts of nested work
// (the shape that starves a single shared queue), inner dispatch lands on
// per-worker deques and must be stolen to finish. Exact coverage of every
// leaf iteration proves no entry was lost or run twice.
TEST(ThreadPool, StressNestedUnbalancedStealing) {
  for (const int workers : {2, 4, 8}) {
    pp::ThreadPool pool(workers);
    constexpr std::size_t kOuter = 24;
    std::vector<std::atomic<int>> leaf_hits(4096);
    std::atomic<std::size_t> total{0};
    pp::parallel_for(
        &pool, 0, kOuter,
        [&](std::size_t i) {
          // Unbalanced: iteration i spawns i^2-ish nested leaves, some of
          // which nest once more.
          const std::size_t inner = 1 + (i * i * 7) % 300;
          pp::parallel_for(
              &pool, 0, inner,
              [&](std::size_t j) {
                if (j % 5 == 0) {
                  pp::parallel_for(
                      &pool, 0, 3,
                      [&](std::size_t q) {
                        ++leaf_hits[(i * 131 + j * 7 + q) % 4096];
                        total.fetch_add(1, std::memory_order_relaxed);
                      },
                      1);
                } else {
                  ++leaf_hits[(i * 131 + j * 7) % 4096];
                  total.fetch_add(1, std::memory_order_relaxed);
                }
              },
              1);
        },
        1);
    std::size_t want = 0;
    for (std::size_t i = 0; i < kOuter; ++i) {
      const std::size_t inner = 1 + (i * i * 7) % 300;
      for (std::size_t j = 0; j < inner; ++j) want += j % 5 == 0 ? 3 : 1;
    }
    EXPECT_EQ(total.load(), want) << "workers=" << workers;
  }
}

// Mixed producers: external submit() storm racing detached parallel_for
// dispatch, then wait_idle() must observe full quiescence.
TEST(ThreadPool, StressExternalSubmitersAndWaitIdle) {
  pp::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::jthread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) pool.submit([&] { ++counter; });
    });
  }
  pp::parallel_for(&pool, 0, 500, [&](std::size_t) { ++counter; }, 1);
  producers.clear();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 3 * 200 + 500);
}

// Two pools used from each other's workers: enqueues from a foreign worker
// must route through the target pool's inbox, not the worker's own deque.
TEST(ThreadPool, CrossPoolDispatchDoesNotMisroute) {
  pp::ThreadPool a(2), b(2);
  std::atomic<int> counter{0};
  pp::parallel_for(
      &a, 0, 8,
      [&](std::size_t) {
        pp::parallel_for(&b, 0, 16, [&](std::size_t) { ++counter; }, 1);
      },
      1);
  EXPECT_EQ(counter.load(), 8 * 16);
}

// ---------------------------------------------------------------------------
// TicketWindow: the bounded-admission gate behind the streaming corpus
// executor — at most `window` tickets outstanding, cancellation-aware wait.
// ---------------------------------------------------------------------------

TEST(TicketWindow, RejectsZeroWindow) {
  EXPECT_THROW(pp::TicketWindow(0), std::invalid_argument);
}

TEST(TicketWindow, BoundsOutstandingTickets) {
  pp::ThreadPool pool(4);
  pp::TicketWindow gate(3);
  std::atomic<int> live{0};
  std::atomic<int> peak_seen{0};
  {
    pp::TaskGroup group(pool);
    for (int i = 0; i < 32; ++i) {
      gate.acquire();
      group.run([&] {
        const int now = ++live;
        int prev = peak_seen.load();
        while (now > prev && !peak_seen.compare_exchange_weak(prev, now)) {
        }
        --live;
        gate.release();
      });
    }
    group.wait();
  }
  EXPECT_EQ(gate.in_flight(), 0u);
  EXPECT_LE(peak_seen.load(), 3);
  EXPECT_LE(gate.peak(), 3u);
  EXPECT_GE(gate.peak(), 1u);
}

TEST(TicketWindow, AcquireHonoursCancellationWhileBlocked) {
  pp::TicketWindow gate(1);
  gate.acquire();  // window now full
  pp::ExecutionContext ctx;
  std::atomic<bool> blocked{false};
  std::thread submitter([&] {
    blocked = true;
    EXPECT_THROW(gate.acquire(ctx), pp::OperationCancelled);
  });
  while (!blocked) std::this_thread::yield();
  ctx.request_cancel();
  submitter.join();
  gate.release();
  EXPECT_EQ(gate.in_flight(), 0u);
}

TEST(TicketWindow, ReleaseUnblocksWaiter) {
  pp::TicketWindow gate(1);
  gate.acquire();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    gate.acquire();
    acquired = true;
    gate.release();
  });
  EXPECT_FALSE(acquired.load());
  gate.release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(gate.peak(), 1u);
}
