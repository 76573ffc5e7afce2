// Tests for ContentionLock (the paper's instrumented latch) and SpinLock.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sync/contention_lock.h"
#include "sync/prefetch.h"
#include "sync/spinlock.h"
#include "util/clock.h"
#include "util/thread_annotations.h"

namespace bpw {
namespace {

// White-box helpers that exercise raw TryLock/Unlock interleavings — locks
// held conditionally on runtime state, exactly the shapes the thread-safety
// analysis exists to reject. They opt out of the analysis; the runtime
// EXPECTs (and TSan in CI) validate them instead.
void ExpectTryLockSucceedsAndRelease(ContentionLock& lock)
    BPW_NO_THREAD_SAFETY_ANALYSIS {
  // bpw-lint-allow(trylock-no-fallback)
  EXPECT_TRUE(lock.TryLock());
  lock.Unlock();
}

void ExpectTryLockFails(ContentionLock& lock) BPW_NO_THREAD_SAFETY_ANALYSIS {
  // bpw-lint-allow(trylock-no-fallback)
  EXPECT_FALSE(lock.TryLock());
}

void SpinTryLockRoundTrip(SpinLock& lock) BPW_NO_THREAD_SAFETY_ANALYSIS {
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(ContentionLockTest, UncontendedLockCountsNoContention) {
  ContentionLock lock;
  for (int i = 0; i < 100; ++i) {
    lock.Lock();
    lock.Unlock();
  }
  LockStats s = lock.stats();
  EXPECT_EQ(s.acquisitions, 100u);
  EXPECT_EQ(s.contentions, 0u);
  EXPECT_EQ(s.trylock_failures, 0u);
}

TEST(ContentionLockTest, TryLockSucceedsWhenFree) {
  ContentionLock lock;
  ExpectTryLockSucceedsAndRelease(lock);
  EXPECT_EQ(lock.stats().acquisitions, 1u);
}

TEST(ContentionLockTest, TryLockFailsWhenHeldAndIsNotAContention) {
  ContentionLock lock;
  lock.Lock();
  std::thread other([&] {
    ExpectTryLockFails(lock);
    ExpectTryLockFails(lock);
  });
  other.join();
  lock.Unlock();
  LockStats s = lock.stats();
  EXPECT_EQ(s.trylock_failures, 2u);
  EXPECT_EQ(s.contentions, 0u);  // TryLock never blocks
}

TEST(ContentionLockTest, BlockingWaitIsAContention) {
  ContentionLock lock;
  lock.Lock();
  std::thread waiter([&] { lock.Lock(); lock.Unlock(); });
  // Give the waiter time to block.
  BusyWaitNanos(20'000'000);
  lock.Unlock();
  waiter.join();
  LockStats s = lock.stats();
  EXPECT_EQ(s.acquisitions, 2u);
  EXPECT_EQ(s.contentions, 1u);
}

TEST(ContentionLockTest, MutualExclusionUnderContention) {
  ContentionLock lock;
  int counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        lock.Lock();
        ++counter;
        lock.Unlock();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, kThreads * kIncrements);
  EXPECT_EQ(lock.stats().acquisitions,
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(ContentionLockTest, TimingInstrumentationRecordsHoldTime) {
  ContentionLock lock(LockInstrumentation::kTiming);
  lock.Lock();
  BusyWaitNanos(3'000'000);  // hold 3 ms
  lock.Unlock();
  EXPECT_GE(lock.stats().hold_nanos, 2'000'000u);
}

TEST(ContentionLockTest, TimingInstrumentationRecordsWaitTime) {
  ContentionLock lock(LockInstrumentation::kTiming);
  lock.Lock();
  std::thread waiter([&] { lock.Lock(); lock.Unlock(); });
  // Hold on until the waiter has failed its immediate acquisition: Lock()
  // counts the contention just before its timed wait starts, so the 5 ms
  // below all fall inside that wait.
  while (lock.stats().contentions < 1) std::this_thread::yield();
  BusyWaitNanos(5'000'000);
  lock.Unlock();
  waiter.join();
  EXPECT_GE(lock.stats().wait_nanos, 1'000'000u);
}

TEST(ContentionLockTest, NoInstrumentationKeepsZeroStats) {
  ContentionLock lock(LockInstrumentation::kNone);
  lock.Lock();
  lock.Unlock();
  ExpectTryLockSucceedsAndRelease(lock);
  LockStats s = lock.stats();
  EXPECT_EQ(s.acquisitions, 0u);
  EXPECT_EQ(s.hold_nanos, 0u);
}

TEST(ContentionLockTest, ResetStatsZeroesCounters) {
  ContentionLock lock;
  lock.Lock();
  lock.Unlock();
  lock.ResetStats();
  EXPECT_EQ(lock.stats().acquisitions, 0u);
}

TEST(LockStatsTest, PlusEqualsAccumulates) {
  LockStats a{1, 2, 3, 4, 5};
  LockStats b{10, 20, 30, 40, 50};
  a += b;
  EXPECT_EQ(a.acquisitions, 11u);
  EXPECT_EQ(a.contentions, 22u);
  EXPECT_EQ(a.trylock_failures, 33u);
  EXPECT_EQ(a.hold_nanos, 44u);
  EXPECT_EQ(a.wait_nanos, 55u);
}

TEST(SpinLockTest, BasicExclusion) {
  SpinLock lock;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50000; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 200000);
}

TEST(SpinLockTest, TryLockReflectsState) {
  SpinLock lock;
  SpinTryLockRoundTrip(lock);
}

TEST(PrefetchTest, NullAndValidPointersAreSafe) {
  PrefetchRead(nullptr);
  PrefetchWrite(nullptr);
  PrefetchRange(nullptr, 1024);
  int x = 0;
  PrefetchRead(&x);
  PrefetchWrite(&x);
  char buf[512];
  PrefetchRange(buf, sizeof(buf));
  SUCCEED();
}

}  // namespace
}  // namespace bpw
