// Multi-threaded stress tests of the buffer pool: integrity under
// concurrent hits, misses, evictions, dirty write-backs, and pins — for
// each coordinator kind.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/coordinator_factory.h"
#include "testing/schedule_point.h"
#include "util/random.h"

namespace bpw {
namespace {

constexpr size_t kPageSize = 512;

struct StressParams {
  std::string system;   // paper system name
  size_t num_frames;
  uint64_t num_pages;
};

class PoolStressTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PoolStressTest, ConcurrentChurnKeepsIntegrity) {
  auto system = PaperSystemConfig(GetParam());
  ASSERT_TRUE(system.ok());

  constexpr size_t kFrames = 64;
  constexpr uint64_t kPages = 256;
  StorageEngine storage(kPages, kPageSize);
  auto coordinator = CreateCoordinator(system.value(), kFrames);
  ASSERT_TRUE(coordinator.ok());
  BufferPoolConfig config;
  config.num_frames = kFrames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 8000;
  std::atomic<uint64_t> total_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &total_errors, t] {
      auto session = pool.CreateSession();
      Random rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const PageId page = rng.Bernoulli(0.6) ? rng.Uniform(32)
                                               : rng.Uniform(kPages);
        auto handle = pool.FetchPage(*session, page);
        if (!handle.ok()) {
          total_errors.fetch_add(1);
          continue;
        }
        // Verify the frame really holds this page's data.
        auto [word, version] = StorageEngine::ReadStamp(handle.value().data());
        if (word != version + page * 0x9E3779B97F4A7C15ULL) {
          total_errors.fetch_add(1);
        }
        if (rng.Bernoulli(0.2)) handle.value().MarkDirty();
      }
      pool.FlushSession(*session);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total_errors.load(), 0u);
  auto session = pool.CreateSession();
  EXPECT_TRUE(pool.CheckIntegrity().ok())
      << pool.CheckIntegrity().ToString();
}

TEST_P(PoolStressTest, DirtyWritesAreNeverLost) {
  // Each page is written by exactly one thread with ascending versions;
  // after a full flush, storage must hold each page's latest version.
  auto system = PaperSystemConfig(GetParam());
  ASSERT_TRUE(system.ok());

  constexpr size_t kFrames = 32;
  constexpr uint64_t kPages = 128;
  StorageEngine storage(kPages, kPageSize);
  auto coordinator = CreateCoordinator(system.value(), kFrames);
  ASSERT_TRUE(coordinator.ok());
  BufferPoolConfig config;
  config.num_frames = kFrames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());

  constexpr int kThreads = 4;
  constexpr uint64_t kRounds = 400;
  std::vector<std::vector<uint64_t>> latest(
      kThreads, std::vector<uint64_t>(kPages / kThreads, 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = pool.CreateSession();
      Random rng(77 + t);
      const PageId base = static_cast<PageId>(t) * (kPages / kThreads);
      for (uint64_t round = 1; round <= kRounds; ++round) {
        const uint64_t idx = rng.Uniform(kPages / kThreads);
        const PageId page = base + idx;
        auto handle = pool.FetchPage(*session, page);
        ASSERT_TRUE(handle.ok());
        StorageEngine::StampPage(handle.value().data(), kPageSize, page,
                                 round);
        handle.value().MarkDirty();
        latest[t][idx] = round;
      }
      pool.FlushSession(*session);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(pool.FlushAll().ok());
  for (int t = 0; t < kThreads; ++t) {
    const PageId base = static_cast<PageId>(t) * (kPages / kThreads);
    for (uint64_t idx = 0; idx < kPages / kThreads; ++idx) {
      if (latest[t][idx] == 0) continue;
      const PageId page = base + idx;
      EXPECT_EQ(storage.VerificationWord(page),
                page * 0x9E3779B97F4A7C15ULL + latest[t][idx])
          << "lost update on page " << page;
    }
  }
}

TEST_P(PoolStressTest, SameHotPageFromAllThreads) {
  auto system = PaperSystemConfig(GetParam());
  ASSERT_TRUE(system.ok());
  constexpr size_t kFrames = 4;
  StorageEngine storage(64, kPageSize);
  auto coordinator = CreateCoordinator(system.value(), kFrames);
  ASSERT_TRUE(coordinator.ok());
  BufferPoolConfig config;
  config.num_frames = kFrames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());

  std::vector<std::thread> threads;
  std::atomic<uint64_t> errors{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&pool, &errors] {
      auto session = pool.CreateSession();
      for (int i = 0; i < 5000; ++i) {
        auto handle = pool.FetchPage(*session, 7);
        if (!handle.ok()) errors.fetch_add(1);
      }
      pool.FlushSession(*session);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_TRUE(pool.CheckIntegrity().ok());
}

INSTANTIATE_TEST_SUITE_P(AllSystems, PoolStressTest,
                         ::testing::Values("pgClock", "pg2Q", "pgPre",
                                           "pgBat", "pgBatPre"));

TEST(PoolConcurrencyTest, SingleFlightLoadsOncePerPage) {
  // Many threads fault the same cold page simultaneously; storage must see
  // exactly one read.
  StorageEngine storage(16, kPageSize);
  SystemConfig system;
  system.policy = "lru";
  system.coordinator = "serialized";
  auto coordinator = CreateCoordinator(system, 8);
  ASSERT_TRUE(coordinator.ok());
  BufferPoolConfig config;
  config.num_frames = 8;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto session = pool.CreateSession();
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      auto handle = pool.FetchPage(*session, 3);
      EXPECT_TRUE(handle.ok());
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(storage.stats().reads, 1u)
      << "duplicate I/O for concurrently-faulted page";
}

#if BPW_SCHEDULE_POINTS

// Leaves the schedule untouched (Perturb is a no-op) and counts the yields
// of a miss waiting for an evictable frame.
class EvictRetryCounter : public testing::ScheduleController {
 public:
  void Perturb(const char* /*point*/, const void* /*obj*/) override {}
  void Yield(const char* point) override {
    if (std::strcmp(point, "pool.evict_retry") == 0) {
      evict_retries_.fetch_add(1);
    }
    ScheduleController::Yield(point);
  }
  uint64_t evict_retries() const { return evict_retries_.load(); }

 private:
  std::atomic<uint64_t> evict_retries_{0};
};

TEST(PoolConcurrencyTest, MissWaitsForAnotherSessionsUnpin) {
  // Every frame pinned by another session is a transient state: the miss
  // must wait for the unpin, however long past eviction_retries it comes,
  // and then succeed.
  StorageEngine storage(16, kPageSize);
  SystemConfig system;
  system.policy = "lru";
  system.coordinator = "serialized";
  auto coordinator = CreateCoordinator(system, 2);
  ASSERT_TRUE(coordinator.ok());
  BufferPoolConfig config;
  config.num_frames = 2;
  config.page_size = kPageSize;
  config.eviction_retries = 2;
  BufferPool pool(config, &storage, std::move(coordinator).value());

  auto session_a = pool.CreateSession();
  auto h0 = pool.FetchPage(*session_a, 0);
  auto h1 = pool.FetchPage(*session_a, 1);
  ASSERT_TRUE(h0.ok());
  ASSERT_TRUE(h1.ok());

  EvictRetryCounter controller;
  controller.Install();
  std::atomic<bool> fetch_returned{false};
  Status fetch_status;
  std::thread b([&] {
    auto session_b = pool.CreateSession();
    auto handle = pool.FetchPage(*session_b, 2);
    fetch_status = handle.status();
    if (handle.ok()) {
      EXPECT_EQ(handle->page(), 2u);
    }
    fetch_returned.store(true);
  });
  // Release a pin only once B has waited out more than eviction_retries
  // (or has already given up).
  while (controller.evict_retries() <=
             static_cast<uint64_t>(config.eviction_retries) &&
         !fetch_returned.load()) {
    std::this_thread::yield();
  }
  h0.value().Release();
  b.join();
  controller.Uninstall();

  EXPECT_GT(controller.evict_retries(),
            static_cast<uint64_t>(config.eviction_retries));
  EXPECT_TRUE(fetch_status.ok()) << fetch_status.ToString();
  h1.value().Release();
  EXPECT_TRUE(pool.CheckIntegrity().ok());
}

#else  // !BPW_SCHEDULE_POINTS

TEST(PoolConcurrencyTest, MissWaitsForAnotherSessionsUnpin) {
  GTEST_SKIP() << "counting the miss's retries requires schedule points; "
                  "this build has -DBPW_SCHEDULE_POINTS=0";
}

#endif  // BPW_SCHEDULE_POINTS

}  // namespace
}  // namespace bpw
