// A cross-process latch for the serving tests. While armed, it parks the
// first serve executor that starts (the kExecutorPark fault site), so a
// test can signal a worker that provably holds a request in flight.
//
// The latch state lives in a shared anonymous mapping and the injector is
// installed in the constructor: build the latch before Server::start()
// so every forked worker, respawns included, sees the same latch.

#ifndef CQA_TESTS_PARK_LATCH_H_
#define CQA_TESTS_PARK_LATCH_H_

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <new>
#include <thread>

#include "cqa/guard/fault.h"
#include "cqa/util/status.h"

namespace cqa {

class ParkLatch {
 public:
  ParkLatch() : injector_(plan()) {
    void* mem = mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    CQA_CHECK(mem != MAP_FAILED);
    shared_ = new (mem) Shared();
    injector_.set_park_action([s = shared_] { park(s); });
    guard::install_fault_injector(&injector_);
  }
  ~ParkLatch() {
    guard::install_fault_injector(nullptr);
    munmap(shared_, sizeof(Shared));
  }
  ParkLatch(const ParkLatch&) = delete;
  ParkLatch& operator=(const ParkLatch&) = delete;

  /// The next executor to start parks.
  void arm() { shared_->state.store(kArmed); }

  /// Pid of the worker whose executor parked, or -1 if none parked
  /// within `timeout`.
  pid_t wait_parked(std::chrono::milliseconds timeout) const {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (shared_->state.load() != kParked) {
      if (std::chrono::steady_clock::now() >= deadline) return -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return shared_->pid.load();
  }

  /// Lets a parked executor (if still alive) resume; later executors run
  /// straight through.
  void release() { shared_->state.store(kIdle); }

 private:
  enum State : int { kIdle = 0, kArmed, kParked };
  struct Shared {
    std::atomic<int> state{kIdle};
    std::atomic<pid_t> pid{-1};
  };

  static guard::FaultPlan plan() {
    guard::FaultPlan p;
    p.rate[static_cast<std::size_t>(guard::FaultSite::kExecutorPark)] = 1.0;
    return p;
  }

  // Runs in the worker. Bounded, so a test that never signals the worker
  // cannot wedge it for good.
  static void park(Shared* s) {
    int expected = kArmed;
    if (!s->state.compare_exchange_strong(expected, kParked)) return;
    s->pid.store(getpid());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (s->state.load() == kParked &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  guard::FaultInjector injector_;
  Shared* shared_ = nullptr;
};

}  // namespace cqa

#endif  // CQA_TESTS_PARK_LATCH_H_
