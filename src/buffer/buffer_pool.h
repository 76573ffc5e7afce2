// BufferPool: the buffer manager of Fig. 1/3 in the paper.
//
// Layout per page request (paper §II):
//   1. look up the partitioned hash table (scalable, per-bucket locks);
//   2. on a hit, pin the frame and report the access to the Coordinator —
//      which is where the paper's lock either does or does not get taken;
//   3. on a miss, pick a victim through the Coordinator, write it back if
//      dirty, read the new page from storage, publish the mapping.
//
// Concurrency design:
//   - Each frame has a small latch guarding (tag, pin, io_busy) transitions;
//     held only for a handful of instructions.
//   - A miss is "single-flight": concurrent faults on the same page wait on
//     a condition variable instead of issuing duplicate I/O.
//   - The frame tag array is atomic and shared with the Coordinator so
//     BP-Wrapper can re-validate queued accesses at commit time (§IV-B).
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <unordered_set>
#include <vector>

#include "buffer/page_table.h"
#include "core/coordinator.h"
#include "obs/metrics.h"
#include "storage/storage_engine.h"
#include "sync/mutex.h"
#include "sync/spinlock.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace bpw {

class BufferPool;

/// RAII pin on a buffer page. While a handle is live the page cannot be
/// evicted. Move-only. A handle counts towards the pin tally of the session
/// that fetched it, so it must not outlive that session.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  ~PageHandle();

  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageId page() const { return page_; }
  FrameId frame() const { return frame_; }

  /// The frame's data (page_size bytes). Writable; call MarkDirty() after
  /// modifying so the pool writes the page back before eviction.
  uint8_t* data() const { return data_; }

  /// Marks the page dirty; it will be written back on eviction/flush.
  void MarkDirty();

  /// Releases the pin early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, PageId page, FrameId frame, uint8_t* data,
             std::atomic<size_t>* session_pins)
      : pool_(pool),
        page_(page),
        frame_(frame),
        data_(data),
        session_pins_(session_pins) {
    session_pins_->fetch_add(1, std::memory_order_relaxed);
  }

  BufferPool* pool_ = nullptr;
  PageId page_ = kInvalidPageId;
  FrameId frame_ = kInvalidFrameId;
  uint8_t* data_ = nullptr;
  // The fetching session's live-pin tally (BufferPool::Session::live_pins_).
  std::atomic<size_t>* session_pins_ BPW_RELAXED_OK(
      "pin tally only decides wait-vs-fail; the frame pin counts order "
      "the data") = nullptr;
};

/// Counters a worker accumulates locally (merged by the driver).
struct AccessStats {
  uint64_t hits = 0;
  uint64_t misses = 0;

  uint64_t accesses() const { return hits + misses; }
  double hit_ratio() const {
    const uint64_t total = accesses();
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

struct BufferPoolConfig {
  size_t num_frames = 1024;
  size_t page_size = kDefaultPageSize;
  size_t table_shards = 128;
  /// Maximum ChooseVictim retries when races invalidate the chosen victim
  /// (another thread pins it between selection and latching). It bounds only
  /// that race: when no frame is evictable at all, the miss waits for other
  /// sessions' unpins instead (see BufferPool::FetchPage).
  int eviction_retries = 64;
  /// MUTATION KNOB — tests only. Skips the eviction-time re-validation that
  /// a chosen victim is still unpinned and still holds the selected page.
  /// This deliberately re-introduces the race the re-validation exists to
  /// close, so the stress harness's mutation self-test can prove it detects
  /// the resulting corruption (tests/stress/mutation_test.cc).
  bool test_skip_victim_revalidation = false;
};

class BufferPool {
 public:
  /// A per-worker-thread session: wraps the coordinator's thread slot and
  /// local hit/miss counters. Create one per thread via CreateSession().
  class Session {
   public:
    const AccessStats& stats() const { return stats_; }
    void ResetStats() { stats_ = AccessStats{}; }

    /// The coordinator slot backing this session, for
    /// Coordinator::SlotStateFingerprint (model-checker state dedup).
    const Coordinator::ThreadSlot* slot() const { return slot_.get(); }

   private:
    friend class BufferPool;
    explicit Session(std::unique_ptr<Coordinator::ThreadSlot> slot)
        : slot_(std::move(slot)) {}
    std::unique_ptr<Coordinator::ThreadSlot> slot_;
    AccessStats stats_;
    // Pins held through this session's live PageHandles: each handle adds
    // one when FetchPage creates it and subtracts it on Release. A miss that
    // finds every frame pinned fails only when this tally covers the whole
    // pool (no other session's unpin can come); otherwise it waits.
    std::atomic<size_t> live_pins_{0} BPW_RELAXED_OK(
        "pin tally only decides wait-vs-fail; the frame pin counts order "
        "the data");
  };

  /// @param coordinator owns the replacement policy; the pool binds its
  ///        frame-tag array into it for commit-time re-validation.
  BufferPool(const BufferPoolConfig& config, StorageEngine* storage,
             std::unique_ptr<Coordinator> coordinator)
      BPW_HOLD_EFFECT_OK(alloc, "frame-table construction; the pool is "
                                "single-threaded until the ctor returns");
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Registers the calling thread.
  std::unique_ptr<Session> CreateSession();

  /// Fetches `page`, reading it from storage on a miss, and returns a
  /// pinned handle. A miss that finds every frame pinned waits for another
  /// session to unpin one. It fails with ResourceExhausted when `session`
  /// itself pins every frame of the pool (waiting cannot help), when
  /// eviction kept racing with pinners past `eviction_retries`, or when the
  /// wait ran past the pool's wedge bound.
  StatusOr<PageHandle> FetchPage(Session& session, PageId page)
      BPW_HOLD_EFFECT_OK(alloc, "free-list push_back into capacity reserved "
                                "for num_frames at construction");

  /// Drops `page` from the buffer (invalidation). Fails with
  /// FailedPrecondition if the page is pinned. The page is NOT written
  /// back: callers invalidating a page are discarding its contents.
  Status DropPage(Session& session, PageId page)
      BPW_HOLD_EFFECT_OK(alloc, "free-list push_back into capacity reserved "
                                "for num_frames at construction");

  /// Writes back every dirty page (quiesced callers only).
  Status FlushAll();

  /// Commits any accesses buffered in this session's BP-Wrapper queue.
  void FlushSession(Session& session);

  /// Pre-loads `pages` sequentially (warm-up helper for experiments).
  Status Prewarm(Session& session, PageId first_page, uint64_t count);

  Coordinator& coordinator() { return *coordinator_; }
  const Coordinator& coordinator() const { return *coordinator_; }
  StorageEngine& storage() { return *storage_; }
  size_t num_frames() const { return config_.num_frames; }
  size_t page_size() const { return config_.page_size; }

  /// Pool-wide miss-path counters.
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  uint64_t writebacks() const {
    return writebacks_.load(std::memory_order_relaxed);
  }
  /// Times a chosen victim had to be re-registered because it was pinned
  /// between selection and latching (rare race; see EvictOne).
  uint64_t eviction_races() const {
    return eviction_races_.load(std::memory_order_relaxed);
  }
  /// Write-backs whose storage write failed (the page's last version is
  /// reported lost; with fault injection every lost update must be covered
  /// by this counter plus the injector's torn-write count).
  uint64_t writeback_failures() const {
    return writeback_failures_.load(std::memory_order_relaxed);
  }

  /// Structural integrity check for tests: table/tag/policy agreement.
  Status CheckIntegrity();

  /// Structural fingerprint of (frame tags, pins, dirty/io flags, free list,
  /// pending loads) for the model checker's visited-state dedup. Quiesced
  /// callers only (the cooperative scheduler holds every worker parked while
  /// fingerprinting); deliberately pointer-free so identical logical states
  /// from different executions collide.
  uint64_t StateFingerprint() const BPW_NO_THREAD_SAFETY_ANALYSIS;

 private:
  friend class PageHandle;

  struct FrameMeta {
    SpinLock latch;
    // Transitions happen under the latch; atomics allow the policy's
    // evictability probe and Unpin to read/update without it. Relaxed is
    // deliberate there: a stale probe answer only costs a retry, and the
    // latch orders every transition that matters.
    std::atomic<uint32_t> pin_count{0} BPW_RELAXED_OK(
        "latch orders transitions; lock-free probes tolerate staleness");
    std::atomic<bool> dirty{false} BPW_RELAXED_OK(
        "latch orders transitions; lock-free probes tolerate staleness");
    std::atomic<bool> io_busy{false} BPW_RELAXED_OK(
        "latch orders transitions; lock-free probes tolerate staleness");
  };

  uint8_t* FrameData(FrameId frame) {
    return buffer_.data() + static_cast<size_t>(frame) * config_.page_size;
  }
  PageId FrameTag(FrameId frame) const {
    return frame_tags_[frame].load(std::memory_order_acquire);
  }

  /// Attempts to pin `frame` expecting it to hold `page`. Returns false if
  /// the frame moved on (caller retries the whole fetch).
  bool TryPin(FrameId frame, PageId page);

  void Unpin(FrameId frame, bool mark_dirty);

  /// Obtains a clean, unmapped frame: from the free list, or by evicting.
  StatusOr<FrameId> AcquireFrame(Session& session, PageId incoming);

  /// Single-flight guard around the miss path.
  bool BeginLoad(PageId page);   // true if this thread owns the load
  void FinishLoad(PageId page);  // wakes waiters

  BufferPoolConfig config_;
  StorageEngine* storage_;
  std::unique_ptr<Coordinator> coordinator_;

  PageTable table_;
  std::vector<uint8_t> buffer_;
  std::vector<FrameMeta> frames_;
  // Published by release-store in the mapping path, acquire-loaded by
  // readers (FrameTag); the single relaxed use is the pre-table-insert
  // construction fill, where no reader exists yet.
  std::vector<std::atomic<PageId>> frame_tags_ BPW_RELAXED_OK(
      "relaxed only before publication (construction fill)");

  SpinLock free_lock_;
  std::vector<FrameId> free_frames_ BPW_GUARDED_BY(free_lock_);

  // Single-flight miss tracking. condition_variable_any (not _variable)
  // because it waits on the annotated bpw::Mutex directly, keeping the
  // guarded_by relation visible to the thread-safety analysis.
  Mutex pending_mu_;
  std::condition_variable_any pending_cv_;
  std::unordered_set<PageId> pending_loads_ BPW_GUARDED_BY(pending_mu_);

  std::atomic<uint64_t> evictions_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> writebacks_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> eviction_races_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> writeback_failures_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<bool> writeback_failure_logged_{false};

  // Registry counters (sharded; owned by the registry). Hits and misses are
  // only tallied per-session otherwise, so these give the sampler a pool-
  // wide live view.
  obs::Counter* metric_hits_ = nullptr;
  obs::Counter* metric_misses_ = nullptr;
  obs::Counter* metric_evictions_ = nullptr;
  obs::Counter* metric_writebacks_ = nullptr;
  // Declared last so it unregisters before anything it reads is destroyed.
  obs::ScopedMetricSource metrics_source_;
};

}  // namespace bpw
