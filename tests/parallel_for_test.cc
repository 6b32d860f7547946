// Unit tests for the task fan-out layer: chunk geometry, and
// ParallelFor's contract — every task once, worker indices below the
// worker count, inline order at one thread, exception propagation,
// request identity on every worker, and nested fan-outs — over empty,
// 1-element, and odd-sized ranges at several thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_for.h"
#include "obs/request_context.h"

namespace geoalign::common {
namespace {

TEST(DeterministicChunks, EmptyRange) {
  EXPECT_TRUE(DeterministicChunks(0, 8).empty());
}

TEST(DeterministicChunks, CoversRangeExactlyOnce) {
  for (size_t n : {1, 2, 7, 17, 100, 101, 1023}) {
    for (size_t grain : {1, 3, 8, 1000}) {
      std::vector<ChunkRange> chunks = DeterministicChunks(n, grain);
      ASSERT_FALSE(chunks.empty());
      EXPECT_EQ(chunks.front().begin, 0u);
      EXPECT_EQ(chunks.back().end, n);
      for (size_t c = 1; c < chunks.size(); ++c) {
        EXPECT_EQ(chunks[c].begin, chunks[c - 1].end);
        EXPECT_LT(chunks[c].begin, chunks[c].end);
      }
    }
  }
}

TEST(DeterministicChunks, ChunkCountIsBounded) {
  EXPECT_LE(DeterministicChunks(1 << 20, 1).size(), kMaxChunks);
}

TEST(DeterministicChunks, IndependentOfNothingButNAndGrain) {
  // The contract: same (n, grain) -> same boundaries, every time.
  std::vector<ChunkRange> a = DeterministicChunks(12345, 7);
  std::vector<ChunkRange> b = DeterministicChunks(12345, 7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].begin, b[c].begin);
    EXPECT_EQ(a[c].end, b[c].end);
  }
}

// ParallelFor over chunked ranges at several thread counts (0 = every
// hardware thread).
class ParallelForTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelForTest, EmptyRangeNeverCallsBody) {
  std::atomic<int> calls{0};
  std::vector<ChunkRange> chunks = DeterministicChunks(0, 4);
  ParallelFor(GetParam(), chunks.size(), [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST_P(ParallelForTest, SingleElementRange) {
  std::vector<int> visits(1, 0);
  std::vector<ChunkRange> chunks = DeterministicChunks(1, 4);
  ParallelFor(GetParam(), chunks.size(), [&](size_t c, size_t) {
    for (size_t i = chunks[c].begin; i < chunks[c].end; ++i) ++visits[i];
  });
  EXPECT_EQ(visits[0], 1);
}

TEST_P(ParallelForTest, OddSizedRangesVisitEveryIndexOnce) {
  for (size_t n : {3, 7, 17, 101}) {
    // Chunks own disjoint index ranges, so plain ints are race-free.
    std::vector<int> visits(n, 0);
    std::vector<ChunkRange> chunks = DeterministicChunks(n, 4);
    ParallelFor(GetParam(), chunks.size(), [&](size_t c, size_t) {
      for (size_t i = chunks[c].begin; i < chunks[c].end; ++i) ++visits[i];
    });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST_P(ParallelForTest, ChunkExceptionPropagates) {
  std::vector<ChunkRange> chunks = DeterministicChunks(32, 4);
  EXPECT_THROW(ParallelFor(GetParam(), chunks.size(),
                           [&](size_t chunk, size_t) {
                             if (chunk >= 2) {
                               throw std::runtime_error("boom");
                             }
                           }),
               std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ParallelForTest,
                         ::testing::Values(0, 1, 2, 7));

TEST(ParallelFor, EveryTaskRunsOnceOnAWorkerBelowTheWorkerCount) {
  for (size_t threads : {0, 1, 2, 3, 8}) {
    for (size_t n : {0, 1, 2, 7, 513}) {
      const size_t workers = std::min(ResolveThreadCount(threads), n);
      EXPECT_EQ(ParallelWorkers(threads, n), workers);
      std::vector<std::atomic<int>> runs(n);
      std::vector<size_t> worker_of(n, 0);
      ParallelFor(threads, n, [&](size_t task, size_t worker) {
        ++runs[task];
        worker_of[task] = worker;  // one writer per task
      });
      for (size_t t = 0; t < n; ++t) {
        EXPECT_EQ(runs[t].load(), 1)
            << "threads " << threads << " n " << n << " task " << t;
        EXPECT_LT(worker_of[t], workers)
            << "threads " << threads << " n " << n << " task " << t;
      }
    }
  }
}

TEST(ParallelFor, InlineAndInOrderAtOneThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  bool all_on_caller = true;
  ParallelFor(1, 9, [&](size_t task, size_t worker) {
    order.push_back(task);
    EXPECT_EQ(worker, 0u);
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_TRUE(all_on_caller);

  // One task never leaves the calling thread, whatever the count.
  std::thread::id ran_on;
  ParallelFor(8, 1,
              [&](size_t, size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ParallelFor, SmallestIndexExceptionAfterStartedTasksFinish) {
  // Task 5 throws at once; task 3 throws only after a pause, and task
  // 1 finishes only after one. The rethrown error is task 3's, and no
  // started task is still running when it arrives.
  for (size_t threads : {1, 2, 4, 8}) {
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
    std::string caught;
    try {
      ParallelFor(threads, 16, [&](size_t task, size_t) {
        ++started;
        struct Finish {
          std::atomic<int>& count;
          ~Finish() { ++count; }
        } finish{finished};
        if (task == 1 || task == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        if (task == 3 || task == 5) {
          throw std::runtime_error("task " + std::to_string(task));
        }
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
      EXPECT_EQ(finished.load(), started.load()) << "threads " << threads;
    }
    EXPECT_EQ(caught, "task 3") << "threads " << threads;
  }
}

TEST(ParallelFor, EveryTaskSeesTheCallersRequest) {
  obs::RequestScope scope("parallel-for-test");
  constexpr size_t kTasks = 64;
  std::vector<uint64_t> seen(kTasks, 0);
  std::vector<std::string> ids(kTasks);
  ParallelFor(4, kTasks, [&](size_t task, size_t) {
    seen[task] = obs::CurrentRequestSeq();
    ids[task] = obs::CurrentRequest().id;
  });
  for (size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(seen[t], scope.seq()) << "task " << t;
    EXPECT_EQ(ids[t], "parallel-for-test") << "task " << t;
  }
  EXPECT_EQ(obs::CurrentRequestSeq(), scope.seq());
}

// Each call owns its threads, so a task that fans out again never waits
// for a worker its caller holds.
TEST(ParallelFor, NestedFanOutsComplete) {
  std::atomic<int> inner_runs{0};
  ParallelFor(4, 8, [&](size_t, size_t) {
    ParallelFor(4, 16, [&](size_t, size_t) { ++inner_runs; });
  });
  EXPECT_EQ(inner_runs.load(), 8 * 16);
}

TEST(ResolveThreadCount, ZeroMeansHardware) {
  EXPECT_GE(ResolveThreadCount(0), 1u);
  EXPECT_EQ(ResolveThreadCount(5), 5u);
}

}  // namespace
}  // namespace geoalign::common
