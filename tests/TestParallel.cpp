//===- tests/TestParallel.cpp - The shared worker pool --------------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

using namespace ipas;

namespace {

/// Per-index visit counters.
struct Visits {
  explicit Visits(size_t N) : N(N), Count(new std::atomic<unsigned>[N]) {
    for (size_t I = 0; I != N; ++I)
      Count[I] = 0;
  }
  void hit(size_t I) { Count[I].fetch_add(1, std::memory_order_relaxed); }
  /// Number of indices not visited exactly once.
  size_t wrong() const {
    size_t Wrong = 0;
    for (size_t I = 0; I != N; ++I)
      Wrong += Count[I].load() != 1;
    return Wrong;
  }

  size_t N;
  std::unique_ptr<std::atomic<unsigned>[]> Count;
};

} // namespace

TEST(Parallel, VisitsEveryIndexExactlyOnce) {
  for (size_t N : {size_t(0), size_t(1), size_t(7), size_t(1000)})
    for (unsigned Threads : {1u, 4u}) {
      Visits V(N);
      parallelFor(N, Threads, [&](size_t I) { V.hit(I); });
      EXPECT_EQ(V.wrong(), 0u) << "N=" << N << " threads=" << Threads;
    }
}

TEST(Parallel, SpreadsWorkOverThreads) {
  // Slow items give the pool time to join: with 4 threads, 16 items of
  // 2 ms each must not all run on the caller.
  std::atomic<unsigned> OffCaller{0};
  const std::thread::id Caller = std::this_thread::get_id();
  parallelFor(16, 4, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (std::this_thread::get_id() != Caller)
      ++OffCaller;
  });
  EXPECT_GT(OffCaller.load(), 0u);
}

TEST(Parallel, NestedCallRunsInline) {
  const size_t Outer = 8, Inner = 16;
  Visits V(Outer * Inner);
  std::atomic<unsigned> Migrated{0};
  parallelFor(Outer, 4, [&](size_t I) {
    const std::thread::id Self = std::this_thread::get_id();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    size_t Expect = 0;
    parallelFor(Inner, 4, [&](size_t J) {
      if (std::this_thread::get_id() != Self || J != Expect++)
        ++Migrated;
      V.hit(I * Inner + J);
    });
  });
  EXPECT_EQ(V.wrong(), 0u);
  EXPECT_EQ(Migrated.load(), 0u)
      << "a nested loop left its thread or ran out of index order";
}

TEST(Parallel, ConcurrentTopLevelCallersFinish) {
  for (int Round = 0; Round != 20; ++Round) {
    Visits A(1000), B(1000);
    std::thread Other(
        [&] { parallelFor(1000, 4, [&](size_t I) { B.hit(I); }); });
    parallelFor(1000, 4, [&](size_t I) { A.hit(I); });
    Other.join();
    ASSERT_EQ(A.wrong(), 0u) << "round " << Round;
    ASSERT_EQ(B.wrong(), 0u) << "round " << Round;
  }
}

TEST(Parallel, RethrowsTheFirstExceptionAfterTheLoopDrains) {
  std::atomic<unsigned> Started{0}, Finished{0};
  EXPECT_THROW(parallelFor(1000, 4,
                           [&](size_t I) {
                             ++Started;
                             if (I == 5)
                               throw std::runtime_error("item 5");
                             std::this_thread::sleep_for(
                                 std::chrono::microseconds(50));
                             ++Finished;
                           }),
               std::runtime_error);
  // Every call that started has returned or thrown by the time the
  // exception reaches the caller, and the hand-out stopped early.
  EXPECT_EQ(Started.load(), Finished.load() + 1);
  EXPECT_LT(Started.load(), 1000u);
}
