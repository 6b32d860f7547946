// Unit tests for the task fan-out layer: pool startup/shutdown,
// exception propagation out of tasks, chunk geometry, and
// ParallelForChunks over empty, 1-element, and odd-sized ranges at
// several thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"

namespace geoalign::common {
namespace {

TEST(ThreadPool, StartupAndShutdownAtManySizes) {
  for (size_t n : {1, 2, 3, 7, 16}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.size(), n);
  }  // destructor joins with an empty queue
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }  // destructor must run all 64 before joining
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, TaskExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<void> ok = pool.Submit([] {});
  std::future<void> bad =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

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

// ParallelForChunks behavior at several pool configurations, including
// the inline (no pool) path.
class ParallelForTest : public ::testing::TestWithParam<size_t> {
 protected:
  // GetParam() == 0 means "no pool" (inline execution).
  std::unique_ptr<ThreadPool> MakePool() const {
    return GetParam() == 0 ? nullptr : std::make_unique<ThreadPool>(GetParam());
  }
};

TEST_P(ParallelForTest, EmptyRangeNeverCallsBody) {
  std::unique_ptr<ThreadPool> pool = MakePool();
  std::atomic<int> calls{0};
  std::vector<ChunkRange> chunks = DeterministicChunks(0, 4);
  ParallelForChunks(pool.get(), chunks.size(), [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST_P(ParallelForTest, SingleElementRange) {
  std::unique_ptr<ThreadPool> pool = MakePool();
  std::vector<int> visits(1, 0);
  std::vector<ChunkRange> chunks = DeterministicChunks(1, 4);
  ParallelForChunks(pool.get(), chunks.size(), [&](size_t c) {
    for (size_t i = chunks[c].begin; i < chunks[c].end; ++i) ++visits[i];
  });
  EXPECT_EQ(visits[0], 1);
}

TEST_P(ParallelForTest, OddSizedRangesVisitEveryIndexOnce) {
  std::unique_ptr<ThreadPool> pool = MakePool();
  for (size_t n : {3, 7, 17, 101}) {
    // Chunks own disjoint index ranges, so plain ints are race-free.
    std::vector<int> visits(n, 0);
    std::vector<ChunkRange> chunks = DeterministicChunks(n, 4);
    ParallelForChunks(pool.get(), chunks.size(), [&](size_t c) {
      for (size_t i = chunks[c].begin; i < chunks[c].end; ++i) ++visits[i];
    });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST_P(ParallelForTest, ChunkExceptionPropagates) {
  std::unique_ptr<ThreadPool> pool = MakePool();
  std::vector<ChunkRange> chunks = DeterministicChunks(32, 4);
  EXPECT_THROW(ParallelForChunks(pool.get(), chunks.size(),
                                 [&](size_t chunk) {
                                   if (chunk >= 2) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ParallelForTest,
                         ::testing::Values(0, 1, 2, 7));

TEST(ResolveThreadCount, ZeroMeansHardware) {
  EXPECT_GE(ResolveThreadCount(0), 1u);
  EXPECT_EQ(ResolveThreadCount(5), 5u);
}

TEST(MakePoolOrNull, InlineBelowTwoThreads) {
  EXPECT_EQ(MakePoolOrNull(0), nullptr);
  EXPECT_EQ(MakePoolOrNull(1), nullptr);
  std::unique_ptr<ThreadPool> pool = MakePoolOrNull(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->size(), 3u);
}

}  // namespace
}  // namespace geoalign::common
