// perfbench_selftest: shows that each of the benchmark's output checks
// passes on a good input and fails on a broken one. Run it with
//   python3 perfbench/run.py --self-test
// Exits 0 when every case behaves, 1 otherwise.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "checks.h"
#include "core/coordinator_factory.h"
#include "policy/policy_factory.h"
#include "storage/storage_engine.h"
#include "timed_coordinator.h"
#include "util/random.h"

namespace bpw::perfbench {
namespace {

int failures = 0;

void Expect(const std::string& name, bool ok) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", name.c_str());
  if (!ok) ++failures;
}

void ExpectPass(const std::string& name, const Status& status) {
  Expect(name + " passes on a good input", status.ok());
}

void ExpectFail(const std::string& name, const Status& status) {
  Expect(name + " fails on a broken input", !status.ok());
}

constexpr size_t kPageSize = 4096;
constexpr size_t kFrames = 64;
constexpr uint64_t kFootprint = 512;

std::vector<PageId> SkewedAccesses(size_t n) {
  Random rng(7);
  std::vector<PageId> accesses;
  for (size_t i = 0; i < n; ++i) {
    // Half the accesses on a hot eighth of the pages.
    accesses.push_back(rng.Uniform(2) == 0 ? rng.Uniform(kFootprint / 8)
                                           : rng.Uniform(kFootprint));
  }
  return accesses;
}

// Hit/miss sequence of one session of `system` serving `accesses`; with
// `traced`, through a TimedCoordinator as the traced run builds it.
std::vector<uint8_t> PoolHits(const std::string& system,
                              const std::vector<PageId>& accesses,
                              bool traced) {
  StorageEngine storage(kFootprint, kPageSize);
  auto coordinator =
      CreateCoordinator(PaperSystemConfig(system).value(), kFrames).value();
  TimedCoordinator* timed = nullptr;
  if (traced) {
    auto wrapper = std::make_unique<TimedCoordinator>(std::move(coordinator));
    timed = wrapper.get();
    coordinator = std::move(wrapper);
  }
  BufferPoolConfig config;
  config.num_frames = kFrames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator));
  if (timed != nullptr) Expect("frame tags forwarded", timed->ForwardFrameTags());
  auto session = pool.CreateSession();
  std::vector<uint8_t> hits;
  for (const PageId page : accesses) {
    const uint64_t misses = session->stats().misses;
    auto handle = pool.FetchPage(*session, page);
    if (!handle.ok()) break;
    hits.push_back(session->stats().misses == misses ? 1 : 0);
  }
  return hits;
}

void Run() {
  // Stamps.
  std::vector<uint8_t> page(kPageSize);
  StorageEngine::StampPage(page.data(), kPageSize, 42, 3);
  Expect("stamp check passes on the page asked for",
         StampNamesPage(42, page.data()));
  Expect("stamp check fails on another page", !StampNamesPage(43, page.data()));
  page[8] ^= 1;  // word 1 (the version) no longer matches word 0
  Expect("stamp check fails on a torn stamp", !StampNamesPage(42, page.data()));

  // Counter reconciliations.
  ExpectPass("session totals", CheckSessionTotals(10, 10));
  ExpectFail("session totals", CheckSessionTotals(10, 11));
  ExpectPass("reads = misses", CheckReadsMatchMisses(5, 5));
  ExpectFail("reads = misses", CheckReadsMatchMisses(6, 5));
  ExpectPass("writes = write-backs", CheckWritesMatchWritebacks(7, 7));
  ExpectFail("writes = write-backs", CheckWritesMatchWritebacks(7, 8));
  ExpectPass("nesting", CheckNested("t", 5, 10));
  ExpectFail("nesting", CheckNested("t", 11, 10));

  // Pages on storage.
  {
    StorageEngine storage(kFootprint, kPageSize);
    ExpectPass("storage pages", CheckStoragePages(storage));
    StorageEngine::StampPage(page.data(), kPageSize, 4, 0);
    if (!storage.WritePage(3, page.data()).ok()) ++failures;
    ExpectFail("storage pages", CheckStoragePages(storage));
  }

  // Pool integrity, as the benchmark calls it after a run: a pin left
  // behind is a broken quiesced state.
  {
    StorageEngine storage(kFootprint, kPageSize);
    BufferPoolConfig config;
    config.num_frames = kFrames;
    config.page_size = kPageSize;
    BufferPool pool(
        config, &storage,
        CreateCoordinator(PaperSystemConfig("pgBatPre").value(), kFrames)
            .value());
    auto session = pool.CreateSession();
    auto handle = pool.FetchPage(*session, 1);
    ExpectFail("integrity", pool.CheckIntegrity());
    handle.value().Release();
    ExpectPass("integrity", pool.CheckIntegrity());
  }

  // Same decisions as the policy alone.
  const std::vector<PageId> accesses = SkewedAccesses(20000);
  auto two_q = CreatePolicy("2q", kFrames).value();
  const std::vector<uint8_t> replay = ReplayHits(*two_q, kFootprint, accesses);
  Expect("replay ran every access", replay.size() == accesses.size());
  ExpectPass("pgBatPre decides as 2Q alone",
             CheckSameDecisions(PoolHits("pgBatPre", accesses, false), replay));
  ExpectPass("traced pgBatPre decides as 2Q alone",
             CheckSameDecisions(PoolHits("pgBatPre", accesses, true), replay));
  ExpectFail("pgClock against 2Q alone",
             CheckSameDecisions(PoolHits("pgClock", accesses, false), replay));
  std::vector<uint8_t> flipped = replay;
  flipped[flipped.size() / 2] ^= 1;
  ExpectFail("one flipped decision", CheckSameDecisions(flipped, replay));
  ExpectFail("a short sequence",
             CheckSameDecisions(
                 std::vector<uint8_t>(replay.begin(), replay.end() - 1),
                 replay));
}

}  // namespace
}  // namespace bpw::perfbench

int main() {
  bpw::perfbench::Run();
  std::printf("%s\n", bpw::perfbench::failures == 0 ? "all checks behave"
                                                     : "SELF-TEST FAILED");
  return bpw::perfbench::failures == 0 ? 0 : 1;
}
