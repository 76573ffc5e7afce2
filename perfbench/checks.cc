#include "checks.h"

#include <cstring>
#include <string>

#include "util/clock.h"

namespace bpw::perfbench {

bool StampNamesPage(PageId page, const uint8_t* data) {
  uint64_t words[2];
  std::memcpy(words, data, sizeof(words));
  return words[0] == page * kStampMix + words[1];
}

Status CheckSessionTotals(uint64_t session_accesses,
                          uint64_t successful_fetches) {
  if (session_accesses == successful_fetches) return Status::OK();
  return Status::Corruption(
      "sessions counted " + std::to_string(session_accesses) +
      " hits + misses for " + std::to_string(successful_fetches) +
      " successful fetches");
}

Status CheckReadsMatchMisses(uint64_t storage_reads, uint64_t misses) {
  if (storage_reads == misses) return Status::OK();
  return Status::Corruption("storage served " +
                            std::to_string(storage_reads) + " reads for " +
                            std::to_string(misses) + " misses");
}

Status CheckWritesMatchWritebacks(uint64_t storage_writes,
                                  uint64_t writebacks) {
  if (storage_writes == writebacks) return Status::OK();
  return Status::Corruption("storage took " + std::to_string(storage_writes) +
                            " writes for " + std::to_string(writebacks) +
                            " pool write-backs");
}

Status CheckStoragePages(StorageEngine& storage) {
  std::vector<uint8_t> buf(storage.page_size());
  for (PageId page = 0; page < storage.num_pages(); ++page) {
    Status status = storage.ReadPage(page, buf.data());
    if (!status.ok()) return status;
    if (!StampNamesPage(page, buf.data())) {
      return Status::Corruption("page " + std::to_string(page) +
                                " on storage does not name itself");
    }
  }
  return Status::OK();
}

std::vector<uint8_t> ReplayHits(ReplacementPolicy& policy, uint64_t footprint,
                                const std::vector<PageId>& accesses,
                                size_t timed_from, uint64_t* timed_ns) {
  policy.AssertExclusiveAccess();  // single-threaded replay
  const auto every_frame = [](FrameId) { return true; };
  std::vector<FrameId> frame_of(footprint, kInvalidFrameId);
  FrameId next_free = 0;
  std::vector<uint8_t> hits;
  hits.reserve(accesses.size());
  uint64_t start_ns = NowNanos();
  for (size_t i = 0; i < accesses.size(); ++i) {
    if (i == timed_from) start_ns = NowNanos();
    const PageId page = accesses[i];
    if (frame_of[page] != kInvalidFrameId) {
      policy.OnHit(page, frame_of[page]);
      hits.push_back(1);
      continue;
    }
    FrameId frame = next_free;
    if (next_free < policy.num_frames()) {
      ++next_free;
    } else {
      auto victim = policy.ChooseVictim(every_frame, page);
      if (!victim.ok()) return hits;  // shorter than `accesses`: a mismatch
      frame = victim.value().frame;
      frame_of[victim.value().page] = kInvalidFrameId;
    }
    policy.OnMiss(page, frame);
    frame_of[page] = frame;
    hits.push_back(0);
  }
  if (timed_ns != nullptr) *timed_ns = NowNanos() - start_ns;
  return hits;
}

Status CheckSameDecisions(const std::vector<uint8_t>& pool,
                          const std::vector<uint8_t>& replay) {
  const size_t n = std::min(pool.size(), replay.size());
  for (size_t i = 0; i < n; ++i) {
    if (pool[i] != replay[i]) {
      return Status::Corruption(
          "access " + std::to_string(i) + " was a " +
          (pool[i] ? "hit" : "miss") + " in the pool but a " +
          (replay[i] ? "hit" : "miss") + " for the policy alone");
    }
  }
  if (pool.size() != replay.size()) {
    return Status::Corruption("pool decided " + std::to_string(pool.size()) +
                              " accesses, the policy alone " +
                              std::to_string(replay.size()));
  }
  return Status::OK();
}

Status CheckNested(const char* what, uint64_t inner_ns, uint64_t outer_ns) {
  if (inner_ns <= outer_ns) return Status::OK();
  return Status::Corruption(std::string(what) + ": nested calls took " +
                            std::to_string(inner_ns) + " ns inside " +
                            std::to_string(outer_ns) + " ns of fetches");
}

}  // namespace bpw::perfbench
