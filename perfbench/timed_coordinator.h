// TimedCoordinator: the traced run's view of the core layer. It wraps the
// coordinator CreateCoordinator built, forwards every call to it, and times
// the four calls the buffer pool makes on its fetch path from outside, with
// the same clock the benchmark uses around FetchPage. Times accumulate in
// each worker's own slot, so timing adds no shared cache line.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "util/clock.h"

namespace bpw::perfbench {

class TimedCoordinator final : public Coordinator {
 public:
  enum Call { kOnHit, kChooseVictim, kCompleteMiss, kFlushSlot, kNumCalls };

  struct CallTimes {
    uint64_t nanos[kNumCalls] = {};
    uint64_t calls[kNumCalls] = {};

    void Add(const CallTimes& other) {
      for (int c = 0; c < kNumCalls; ++c) {
        nanos[c] += other.nanos[c];
        calls[c] += other.calls[c];
      }
    }
    CallTimes Minus(const CallTimes& earlier) const {
      CallTimes delta;
      for (int c = 0; c < kNumCalls; ++c) {
        delta.nanos[c] = nanos[c] - earlier.nanos[c];
        delta.calls[c] = calls[c] - earlier.calls[c];
      }
      return delta;
    }
  };

  explicit TimedCoordinator(std::unique_ptr<Coordinator> inner)
      : inner_(std::move(inner)) {}

  /// BindFrameTags is not virtual, so the pool binds its frame-tag array
  /// into this decorator only. Passes it on to the wrapped coordinator so
  /// that it re-validates queued accesses at commit time (paper §IV-B) as it
  /// does untraced. Call once, after the BufferPool is built; false if the
  /// pool bound no tags.
  bool ForwardFrameTags() {
    if (frame_tags_ == nullptr) return false;
    inner_->BindFrameTags(frame_tags_, frame_tag_count_);
    return true;
  }

  /// Call times summed over every slot, live or gone. Read only while no
  /// thread is inside a call (the benchmark's workers are parked).
  CallTimes Totals() const {
    std::lock_guard<std::mutex> guard(mu_);
    CallTimes total = retired_;
    for (const TimedSlot* slot : slots_) total.Add(slot->times);
    return total;
  }

  /// Nanoseconds the calling thread has spent inside timed calls of any
  /// TimedCoordinator. The benchmark reads it around each FetchPage to
  /// split a fetch's time into the core layer's share and the rest.
  static uint64_t ThreadNanos() { return thread_nanos_; }

  std::unique_ptr<ThreadSlot> RegisterThread() override {
    auto slot = std::make_unique<TimedSlot>(this, inner_->RegisterThread());
    std::lock_guard<std::mutex> guard(mu_);
    slots_.push_back(slot.get());
    return slot;
  }

  void OnHit(ThreadSlot* slot, PageId page, FrameId frame) override {
    TimedSlot* s = Slot(slot);
    const uint64_t start = NowNanos();
    inner_->OnHit(s->inner.get(), page, frame);
    s->Record(kOnHit, start);
  }

  StatusOr<Victim> ChooseVictim(ThreadSlot* slot, const EvictableFn& evictable,
                                PageId incoming) override {
    TimedSlot* s = Slot(slot);
    const uint64_t start = NowNanos();
    auto victim = inner_->ChooseVictim(s->inner.get(), evictable, incoming);
    s->Record(kChooseVictim, start);
    return victim;
  }

  void CompleteMiss(ThreadSlot* slot, PageId page, FrameId frame) override {
    TimedSlot* s = Slot(slot);
    const uint64_t start = NowNanos();
    inner_->CompleteMiss(s->inner.get(), page, frame);
    s->Record(kCompleteMiss, start);
  }

  bool OnErase(ThreadSlot* slot, PageId page, FrameId frame) override {
    return inner_->OnErase(Slot(slot)->inner.get(), page, frame);
  }

  void FlushSlot(ThreadSlot* slot) override {
    TimedSlot* s = Slot(slot);
    const uint64_t start = NowNanos();
    inner_->FlushSlot(s->inner.get());
    s->Record(kFlushSlot, start);
  }

  LockStats lock_stats() const override { return inner_->lock_stats(); }
  void ResetLockStats() override { inner_->ResetLockStats(); }
  const ReplacementPolicy& policy() const override { return inner_->policy(); }
  ReplacementPolicy* mutable_policy() override {
    return inner_->mutable_policy();
  }
  std::string name() const override { return inner_->name(); }
  bool StateFingerprintSupported() const override {
    return inner_->StateFingerprintSupported();
  }
  uint64_t StateFingerprint() const override {
    return inner_->StateFingerprint();
  }
  uint64_t SlotStateFingerprint(const ThreadSlot* slot) const override {
    return inner_->SlotStateFingerprint(
        static_cast<const TimedSlot*>(slot)->inner.get());
  }
  Status CheckQuiescedInvariants() const override {
    return inner_->CheckQuiescedInvariants();
  }

 private:
  struct TimedSlot final : ThreadSlot {
    TimedSlot(TimedCoordinator* owner, std::unique_ptr<ThreadSlot> inner)
        : owner(owner), inner(std::move(inner)) {}
    ~TimedSlot() override {
      // Release the wrapped slot first: its destructor may commit queued
      // accesses, which is coordinator work this slot never timed.
      inner.reset();
      std::lock_guard<std::mutex> guard(owner->mu_);
      owner->retired_.Add(times);
      std::erase(owner->slots_, this);
    }

    void Record(Call call, uint64_t start) {
      const uint64_t nanos = NowNanos() - start;
      times.nanos[call] += nanos;
      ++times.calls[call];
      thread_nanos_ += nanos;
    }

    TimedCoordinator* owner;
    std::unique_ptr<ThreadSlot> inner;
    CallTimes times;
  };

  static TimedSlot* Slot(ThreadSlot* slot) {
    return static_cast<TimedSlot*>(slot);
  }

  static inline thread_local uint64_t thread_nanos_ = 0;

  std::unique_ptr<Coordinator> inner_;
  mutable std::mutex mu_;
  std::vector<TimedSlot*> slots_;  // guarded by mu_
  CallTimes retired_;              // guarded by mu_
};

}  // namespace bpw::perfbench
