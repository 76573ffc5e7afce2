#include "buffer/buffer_pool.h"

#include <thread>

#include "obs/contention_profiler.h"
#include "obs/trace_recorder.h"
#include "testing/schedule_point.h"
#include "util/clock.h"
#include "util/fingerprint.h"
#include "util/logging.h"

namespace bpw {

namespace {

// Liveness bound shared by FetchPage's lookup loop and AcquireFrame's wait
// for an unpinned frame: a mapped frame normally becomes pinnable, and a
// pinned frame unpinned, within micro- to milliseconds (a handful of
// yields). Orders of magnitude past that means the pool is wedged — the
// kind of state fault-injection and mutation testing deliberately produce —
// and an error beats an unkillable spin loop.
constexpr int kStuckSpinLimit = 1'000'000;

}  // namespace

// ---------------------------------------------------------------- PageHandle

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    page_ = other.page_;
    frame_ = other.frame_;
    data_ = other.data_;
    session_pins_ = other.session_pins_;
    other.pool_ = nullptr;
    other.session_pins_ = nullptr;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::MarkDirty() {
  if (pool_ != nullptr) {
    pool_->frames_[frame_].dirty.store(true, std::memory_order_release);
  }
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, /*mark_dirty=*/false);
    session_pins_->fetch_sub(1, std::memory_order_relaxed);
    pool_ = nullptr;
    session_pins_ = nullptr;
  }
}

// ---------------------------------------------------------------- BufferPool

BufferPool::BufferPool(const BufferPoolConfig& config, StorageEngine* storage,
                       std::unique_ptr<Coordinator> coordinator)
    : config_(config),
      storage_(storage),
      coordinator_(std::move(coordinator)),
      table_(config.table_shards),
      buffer_(config.num_frames * config.page_size),
      frames_(config.num_frames),
      frame_tags_(config.num_frames) {
  for (auto& tag : frame_tags_) {
    tag.store(kInvalidPageId, std::memory_order_relaxed);
  }
  {
    // Construction is single-threaded; the guard exists for the analysis
    // (free_frames_ is guarded_by free_lock_) and costs one uncontended
    // lock round-trip.
    SpinLockGuard guard(free_lock_);
    free_frames_.reserve(config_.num_frames);
    // Hand frames out in ascending order (pop_back takes the highest first;
    // order is irrelevant for correctness).
    for (size_t i = config_.num_frames; i-- > 0;) {
      free_frames_.push_back(static_cast<FrameId>(i));
    }
  }
  coordinator_->BindFrameTags(frame_tags_.data(), frame_tags_.size());

  free_lock_.BindProfSite(BPW_PROF_SITE("pool.free_list"));
  // One site for every frame latch: per-frame attribution would be noise,
  // the interesting number is the latch layer's aggregate cost.
  const obs::ProfSiteId latch_site = BPW_PROF_SITE("pool.frame_latch");
  for (auto& meta : frames_) {
    meta.latch.BindProfSite(latch_site);
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  metric_hits_ = registry.GetCounter("buffer.hits");
  metric_misses_ = registry.GetCounter("buffer.misses");
  metric_evictions_ = registry.GetCounter("buffer.evictions");
  metric_writebacks_ = registry.GetCounter("buffer.writebacks");
  metrics_source_ = obs::ScopedMetricSource(
      &registry, [this](obs::MetricsSnapshot& snap) {
        snap.Add("buffer.num_frames",
                 static_cast<double>(config_.num_frames));
        size_t free_count = 0;
        {
          SpinLockGuard guard(free_lock_);
          free_count = free_frames_.size();
        }
        snap.Add("buffer.free_frames", static_cast<double>(free_count));
        snap.Add("buffer.eviction_races",
                 static_cast<double>(eviction_races()));
      });
}

BufferPool::~BufferPool() = default;

std::unique_ptr<BufferPool::Session> BufferPool::CreateSession() {
  return std::unique_ptr<Session>(
      new Session(coordinator_->RegisterThread()));
}

bool BufferPool::TryPin(FrameId frame, PageId page) {
  // Window between the table lookup and the latch: the frame can be evicted
  // and re-used for another page in here.
  BPW_SCHEDULE_POINT("pool.try_pin");
  FrameMeta& meta = frames_[frame];
  SpinLockGuard guard(meta.latch);
  const bool ok = FrameTag(frame) == page &&
                  !meta.io_busy.load(std::memory_order_relaxed);
  if (ok) {
    meta.pin_count.fetch_add(1, std::memory_order_relaxed);
  }
  return ok;
}

void BufferPool::Unpin(FrameId frame, bool mark_dirty) {
  BPW_SCHEDULE_POINT("pool.unpin");
  FrameMeta& meta = frames_[frame];
  if (mark_dirty) {
    meta.dirty.store(true, std::memory_order_release);
  }
  meta.pin_count.fetch_sub(1, std::memory_order_release);
}

bool BufferPool::BeginLoad(PageId page) {
  MutexGuard lock(pending_mu_);
  if (!pending_loads_.contains(page)) {
    pending_loads_.insert(page);
    return true;
  }
  // Explicit wait loop (not the predicate overload): the predicate lambda
  // would be analyzed with an empty capability set even though the wait
  // machinery holds pending_mu_ around every evaluation.
  while (pending_loads_.contains(page)) {
#if BPW_SCHEDULE_POINTS
    // Cooperative bridge for the model checker: a worker must not block in
    // the OS under a one-thread-at-a-time scheduler. PrepareWait registers
    // the wait while pending_mu_ is still held (so FinishLoad cannot slip
    // between the predicate check and registration); CommitWait parks until
    // a NotifyAll, or returns false when the exploration aborts this
    // execution — then we unwind as "someone else loaded it" and let
    // FetchPage's retry loop (which the scheduler also controls) notice the
    // abort.
    testing::ScheduleController* controller =
        testing::ScheduleController::Current();
    if (controller != nullptr && controller->PrepareWait(&pending_cv_)) {
      pending_mu_.unlock();
      const bool woke = controller->CommitWait(&pending_cv_);
      pending_mu_.lock();
      if (!woke) return false;
      continue;
    }
#endif
    pending_cv_.wait(pending_mu_);
  }
  return false;
}

void BufferPool::FinishLoad(PageId page) {
  {
    MutexGuard lock(pending_mu_);
    pending_loads_.erase(page);
  }
  pending_cv_.notify_all();
#if BPW_SCHEDULE_POINTS
  // Wake cooperative waiters too (the real notify_all above only reaches
  // threads blocked in the OS).
  testing::ScheduleController* controller =
      testing::ScheduleController::Current();
  if (controller != nullptr) controller->NotifyAll(&pending_cv_);
#endif
}

StatusOr<FrameId> BufferPool::AcquireFrame(Session& session,
                                           PageId incoming) {
  // pin_count loads are acquire to pair with Unpin's release decrement:
  // observing 0 must order the previous holder's frame accesses before our
  // write-back / reuse of the frame bytes.
  const Coordinator::EvictableFn evictable = [this](FrameId f) {
    const FrameMeta& meta = frames_[f];
    return meta.pin_count.load(std::memory_order_acquire) == 0 &&
           !meta.io_busy.load(std::memory_order_relaxed);
  };

  int races = 0;
  int waits = 0;
  for (;;) {
    // Fast path: an unused frame.
    {
      SpinLockGuard guard(free_lock_);
      if (!free_frames_.empty()) {
        const FrameId frame = free_frames_.back();
        free_frames_.pop_back();
        return frame;
      }
    }

    BPW_PROF_PHASE("evict");
    BPW_SCHEDULE_POINT("pool.evict_select");
    auto victim_or = coordinator_->ChooseVictim(session.slot_.get(),
                                                evictable, incoming);
    if (!victim_or.ok()) {
      // Every frame was pinned (or mid-I/O) at sweep time. That is
      // transient unless this session holds all the pins itself: then only
      // its own releases could free a frame, and waiting would never end.
      if (session.live_pins_.load(std::memory_order_relaxed) >=
              config_.num_frames ||
          ++waits > kStuckSpinLimit) {
        return victim_or.status();
      }
      // Give pin holders a chance to release.
      BPW_SCHEDULE_YIELD("pool.evict_retry");
      continue;
    }
    const Coordinator::Victim victim = victim_or.value();
    FrameMeta& meta = frames_[victim.frame];

    // The classic race window: between the policy detaching the victim and
    // us latching its frame, another thread can pin it.
    BPW_SCHEDULE_POINT("pool.evict_latch");
    meta.latch.lock();
    const bool still_ours =
        config_.test_skip_victim_revalidation ||
        (FrameTag(victim.frame) == victim.page &&
         meta.pin_count.load(std::memory_order_acquire) == 0 &&
         !meta.io_busy.load(std::memory_order_relaxed));
    if (!still_ours) {
      meta.latch.unlock();
      eviction_races_.fetch_add(1, std::memory_order_relaxed);
      // The policy already detached the page but someone pinned it between
      // selection and latching. Re-register it so policy and pool agree,
      // then retry.
      if (FrameTag(victim.frame) == victim.page) {
        coordinator_->CompleteMiss(session.slot_.get(), victim.page,
                                   victim.frame);
      }
      if (races++ >= config_.eviction_retries) {
        return Status::ResourceExhausted(
            "buffer pool: eviction kept racing with pinners");
      }
      // Let the racing pinner (or an aborting drop) release the frame
      // before burning another attempt.
      BPW_SCHEDULE_YIELD("pool.evict_race_retry");
      continue;
    }
    // Block new pins while we drain the frame.
    meta.io_busy.store(true, std::memory_order_relaxed);
    const bool dirty = meta.dirty.load(std::memory_order_relaxed);
    meta.dirty.store(false, std::memory_order_relaxed);
    meta.latch.unlock();

    if (dirty) {
      // The mapping stays in the table during write-back: concurrent
      // fetches of the victim keep failing TryPin (io_busy) instead of
      // re-reading a stale version from storage mid-write.
      BPW_PROF_PHASE("writeback");
      BPW_SCHEDULE_POINT("pool.evict_writeback");
      Status status = storage_->WritePage(victim.page, FrameData(victim.frame));
      if (!status.ok()) {
        // Keep going: the frame is reused. The write is reported lost via
        // the counter (and one log line, not one per failure — fault
        // injection makes failures routine).
        writeback_failures_.fetch_add(1, std::memory_order_relaxed);
        if (!writeback_failure_logged_.exchange(true)) {
          BPW_LOG_ERROR << "write-back of page " << victim.page
                        << " failed: " << status.ToString()
                        << " (further failures counted, not logged)";
        }
      }
      writebacks_.fetch_add(1, std::memory_order_relaxed);
      BPW_METRIC_ADD(metric_writebacks_, 1);
    }

    BPW_SCHEDULE_POINT("pool.evict_publish");
    table_.Erase(victim.page, victim.frame);
    meta.latch.lock();
    frame_tags_[victim.frame].store(kInvalidPageId, std::memory_order_release);
    meta.io_busy.store(false, std::memory_order_relaxed);
    meta.latch.unlock();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    BPW_METRIC_ADD(metric_evictions_, 1);
    if (obs::TraceEnabled()) {
      obs::TraceEmit(obs::TraceEventKind::kEviction, NowNanos(), 0,
                     victim.page);
    }
    return victim.frame;
  }
}

StatusOr<PageHandle> BufferPool::FetchPage(Session& session, PageId page) {
  if (page >= storage_->num_pages()) {
    return Status::InvalidArgument("page id beyond storage");
  }
  for (int spin = 0;; ++spin) {
    if (spin > kStuckSpinLimit) {
      return Status::Internal("page " + std::to_string(page) +
                              " stuck: mapping never became pinnable");
    }
    BPW_SCHEDULE_POINT("pool.fetch_lookup");
    const FrameId frame = table_.Lookup(page);
    if (frame != kInvalidFrameId) {
      if (TryPin(frame, page)) {
        ++session.stats_.hits;
        BPW_METRIC_ADD(metric_hits_, 1);
        coordinator_->OnHit(session.slot_.get(), page, frame);
        return PageHandle(this, page, frame, FrameData(frame),
                          &session.live_pins_);
      }
      // Mapped but mid-eviction or re-used: let the evictor finish.
      BPW_SCHEDULE_YIELD("pool.fetch_busy_retry");
      continue;
    }

    // Miss. Single-flight: only one thread loads a given page.
    if (!BeginLoad(page)) continue;  // someone else loaded it; retry lookup

    // Phase scope for the whole miss resolution; eviction, write-back and
    // the storage read nest under it in the contention report.
    BPW_PROF_PHASE("pool.miss");

    // Re-check under load ownership (the page may have been published
    // between the lookup and BeginLoad).
    if (table_.Lookup(page) != kInvalidFrameId) {
      FinishLoad(page);
      continue;
    }

    auto frame_or = AcquireFrame(session, page);
    if (!frame_or.ok()) {
      FinishLoad(page);
      return frame_or.status();
    }
    const FrameId new_frame = frame_or.value();

    BPW_SCHEDULE_POINT("pool.miss_read");
    Status status = [&] {
      BPW_PROF_PHASE("io_read");
      return storage_->ReadPage(page, FrameData(new_frame));
    }();
    if (!status.ok()) {
      {
        SpinLockGuard guard(free_lock_);
        free_frames_.push_back(new_frame);
      }
      FinishLoad(page);
      return status;
    }

    // Publish: tag + pin first, then the table mapping, then the policy.
    BPW_SCHEDULE_POINT("pool.fetch_publish");
    FrameMeta& meta = frames_[new_frame];
    meta.latch.lock();
    meta.pin_count.store(1, std::memory_order_relaxed);
    meta.dirty.store(false, std::memory_order_relaxed);
    meta.io_busy.store(false, std::memory_order_relaxed);
    frame_tags_[new_frame].store(page, std::memory_order_release);
    meta.latch.unlock();

    if (!table_.Insert(page, new_frame)) {
      // Impossible under single-flight; fail loudly in debug builds.
      BPW_LOG_ERROR << "duplicate mapping for page " << page;
    }
    coordinator_->CompleteMiss(session.slot_.get(), page, new_frame);
    ++session.stats_.misses;
    BPW_METRIC_ADD(metric_misses_, 1);
    FinishLoad(page);
    return PageHandle(this, page, new_frame, FrameData(new_frame),
                      &session.live_pins_);
  }
}

Status BufferPool::DropPage(Session& session, PageId page) {
  BPW_SCHEDULE_POINT("pool.drop");
  const FrameId frame = table_.Lookup(page);
  if (frame == kInvalidFrameId) {
    return Status::NotFound("page not buffered");
  }
  FrameMeta& meta = frames_[frame];
  meta.latch.lock();
  if (FrameTag(frame) != page) {
    meta.latch.unlock();
    return Status::NotFound("page left the buffer concurrently");
  }
  if (meta.pin_count.load(std::memory_order_acquire) != 0) {
    meta.latch.unlock();
    return Status::FailedPrecondition("page is pinned");
  }
  if (meta.io_busy.load(std::memory_order_relaxed)) {
    meta.latch.unlock();
    return Status::FailedPrecondition("page is mid-I/O");
  }
  meta.io_busy.store(true, std::memory_order_relaxed);
  meta.latch.unlock();

  // The policy erase is the commit point, and it must come first: OnErase is
  // a test-and-erase, and a `false` answer means an evictor already detached
  // this page via ChooseVictim and is on its way to the frame. Dropping the
  // mapping anyway would let the page be reloaded while that evictor still
  // holds a stale (page, frame) claim — it would then evict the fresh copy
  // behind the policy's back or re-register a duplicate (ABA). Back off and
  // let the eviction win; the caller sees the same "try again" status as for
  // a pinned page.
  BPW_SCHEDULE_POINT("pool.drop_erase");
  if (!coordinator_->OnErase(session.slot_.get(), page, frame)) {
    meta.latch.lock();
    meta.io_busy.store(false, std::memory_order_relaxed);
    meta.latch.unlock();
    return Status::FailedPrecondition("page is being evicted");
  }

  table_.Erase(page, frame);

  meta.latch.lock();
  frame_tags_[frame].store(kInvalidPageId, std::memory_order_release);
  meta.dirty.store(false, std::memory_order_relaxed);
  meta.io_busy.store(false, std::memory_order_relaxed);
  meta.latch.unlock();

  {
    SpinLockGuard guard(free_lock_);
    free_frames_.push_back(frame);
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  // Error audit: a failed write must leave the page dirty (so a retry can
  // still flush it) and must not stop the sweep — every flushable page gets
  // its chance, and the first error is reported to the caller.
  Status first_error;
  for (FrameId frame = 0; frame < frames_.size(); ++frame) {
    FrameMeta& meta = frames_[frame];
    meta.latch.lock();
    const PageId page = FrameTag(frame);
    if (page == kInvalidPageId ||
        !meta.dirty.load(std::memory_order_relaxed) ||
        meta.io_busy.load(std::memory_order_relaxed)) {
      meta.latch.unlock();
      continue;
    }
    meta.io_busy.store(true, std::memory_order_relaxed);
    meta.dirty.store(false, std::memory_order_relaxed);
    meta.latch.unlock();

    Status status = storage_->WritePage(page, FrameData(frame));
    writebacks_.fetch_add(1, std::memory_order_relaxed);

    meta.latch.lock();
    if (!status.ok()) {
      // Restore dirtiness: the storage write did not happen.
      meta.dirty.store(true, std::memory_order_relaxed);
    }
    meta.io_busy.store(false, std::memory_order_relaxed);
    meta.latch.unlock();
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

void BufferPool::FlushSession(Session& session) {
  coordinator_->FlushSlot(session.slot_.get());
}

Status BufferPool::Prewarm(Session& session, PageId first_page,
                           uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    auto handle = FetchPage(session, first_page + i);
    if (!handle.ok()) return handle.status();
  }
  return Status::OK();
}

uint64_t BufferPool::StateFingerprint() const {
  // Quiesced-by-contract, like CheckIntegrity: the model checker only calls
  // this while every worker is parked at a schedule point, so the lock-free
  // reads below cannot race. Everything hashed is logical state (ids, flags,
  // counts) — never addresses — so the same logical state reached by two
  // different executions produces the same fingerprint.
  Fingerprint fp;
  fp.Combine(frames_.size());
  for (FrameId frame = 0; frame < frames_.size(); ++frame) {
    const FrameMeta& meta = frames_[frame];
    fp.Combine(FrameTag(frame));
    fp.Combine(meta.pin_count.load(std::memory_order_acquire));
    fp.Combine(meta.dirty.load(std::memory_order_relaxed) ? 1 : 0);
    fp.Combine(meta.io_busy.load(std::memory_order_relaxed) ? 1 : 0);
  }
  // The free list is a stack, so its order is part of the state (it decides
  // which frame the next miss takes).
  for (const FrameId frame : free_frames_) fp.Combine(frame);
  for (const PageId page : pending_loads_) fp.CombineUnordered(page);
  return fp.value();
}

Status BufferPool::CheckIntegrity() {
  // Quiesced-only check: no concurrent traffic allowed.
  size_t mapped = 0;
  for (FrameId frame = 0; frame < frames_.size(); ++frame) {
    const FrameMeta& meta = frames_[frame];
    if (meta.pin_count.load(std::memory_order_acquire) != 0) {
      return Status::Corruption("quiesced frame still pinned");
    }
    if (meta.io_busy.load(std::memory_order_relaxed)) {
      return Status::Corruption("quiesced frame still marked io-busy");
    }
    const PageId page = FrameTag(frame);
    if (page == kInvalidPageId) continue;
    ++mapped;
    if (table_.Lookup(page) != frame) {
      return Status::Corruption("frame tag not reflected in page table");
    }
  }
  if (mapped != table_.size()) {
    return Status::Corruption("page table size disagrees with frame tags");
  }
  std::vector<FrameId> free_frames;
  {
    SpinLockGuard guard(free_lock_);
    free_frames = free_frames_;
  }
  std::unordered_set<FrameId> free_set(free_frames.begin(),
                                       free_frames.end());
  if (free_set.size() != free_frames.size()) {
    return Status::Corruption("duplicate frame on the free list");
  }
  for (const FrameId frame : free_frames) {
    if (frame >= frames_.size() || FrameTag(frame) != kInvalidPageId) {
      return Status::Corruption("free-list frame still carries a page tag");
    }
  }
  if (mapped + free_frames.size() != config_.num_frames) {
    return Status::Corruption("mapped + free != total frames");
  }
  // Coordinator-internal conservation checks first (combining publication
  // slots: every published batch applied exactly once; sharded: every
  // mapped page tracked by exactly its home shard). They subsume the
  // resident-count compare below and produce far more specific diagnoses,
  // so a conservation bug must reach its own message, not the generic one.
  Status coord_status = coordinator_->CheckQuiescedInvariants();
  if (!coord_status.ok()) return coord_status;
  // Quiesced by contract (no concurrent traffic), so this thread has
  // exclusive access to the policy without taking the coordinator's lock.
  const ReplacementPolicy& policy = coordinator_->policy();
  policy.AssertExclusiveAccess();
  if (policy.resident_count() != mapped) {
    return Status::Corruption("policy resident count disagrees with pool");
  }
  return policy.CheckInvariants();
}

}  // namespace bpw
