// Output checks of the host benchmark. Each check takes what a run observed
// and returns a non-OK Status that names the first disagreement. They live
// apart from bench_main.cc so that perfbench_selftest can show
// each one failing on a broken input.
#pragma once

#include <cstdint>
#include <vector>

#include "policy/replacement_policy.h"
#include "storage/storage_engine.h"
#include "util/status.h"
#include "util/types.h"

namespace bpw::perfbench {

/// The page-naming mix of the 16-byte stamp every page starts with: word 0
/// equals page * kStampMix + word 1. Spelled out here, not taken from
/// StorageEngine, so the check does not trust the code under test.
inline constexpr uint64_t kStampMix = 0x9E3779B97F4A7C15ULL;

/// True if the stamp at the start of `data` names `page`.
bool StampNamesPage(PageId page, const uint8_t* data);

/// Σ(session hits + misses) must equal the caller's own count of
/// successful FetchPage calls.
Status CheckSessionTotals(uint64_t session_accesses,
                          uint64_t successful_fetches);

/// Storage reads must equal Σ misses: single-flight means one read per
/// miss, and nothing else reads.
Status CheckReadsMatchMisses(uint64_t storage_reads, uint64_t misses);

/// Storage writes must equal the pool's write-backs.
Status CheckWritesMatchWritebacks(uint64_t storage_writes,
                                  uint64_t writebacks);

/// Reads every page of `storage` back and checks that its stamp names it.
/// Adds storage.num_pages() reads to the engine's counters.
Status CheckStoragePages(StorageEngine& storage);

/// Hit (1) or miss (0) for each access of `policy` alone serving
/// `accesses` single-threaded, with frames handed out the way BufferPool
/// does: ascending from the free list first, then the policy's victims.
/// `footprint` bounds the page ids. `policy` must be fresh. If `timed_ns`
/// is given, it receives the time taken by the accesses from `timed_from`
/// on.
std::vector<uint8_t> ReplayHits(ReplacementPolicy& policy, uint64_t footprint,
                                const std::vector<PageId>& accesses,
                                size_t timed_from = 0,
                                uint64_t* timed_ns = nullptr);

/// The pool's hit/miss sequence must equal the policy replay's.
Status CheckSameDecisions(const std::vector<uint8_t>& pool,
                          const std::vector<uint8_t>& replay);

/// Time spent in calls nested inside a set of fetches must not exceed the
/// fetches' own time.
Status CheckNested(const char* what, uint64_t inner_ns, uint64_t outer_ns);

}  // namespace bpw::perfbench
