// StopAndJoin: scope guard for tests that run background threads until a
// `stop` flag is set.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

namespace bpw {

/// Sets `stop` and joins `threads` when it goes out of scope, so a failed
/// ASSERT that returns early never leaves a joinable std::thread behind
/// (its destructor would call std::terminate and abort the whole binary).
/// Now() does the same earlier, for tests that check state after the join.
class StopAndJoin {
 public:
  StopAndJoin(std::atomic<bool>& stop, std::vector<std::thread>& threads)
      : stop_(stop), threads_(threads) {}
  ~StopAndJoin() { Now(); }

  StopAndJoin(const StopAndJoin&) = delete;
  StopAndJoin& operator=(const StopAndJoin&) = delete;

  void Now() {
    stop_.store(true);
    for (auto& th : threads_) {
      if (th.joinable()) th.join();
    }
  }

 private:
  std::atomic<bool>& stop_;
  std::vector<std::thread>& threads_;
};

}  // namespace bpw
