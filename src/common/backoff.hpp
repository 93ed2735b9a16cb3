// Exponential back-off for retry loops (lock acquisition, symmetric-heap
// allocation, PSCW spinning). The paper prescribes exponential back-off on
// all waits/retries to avoid congesting the target NIC.
#pragma once

#include <cstdint>
#include <thread>

#include "common/instr.hpp"

namespace fompi {

class Backoff {
 public:
  explicit Backoff(std::uint32_t max_spins = 1024) : max_(max_spins) {}

  /// One back-off step: yields at least once (rank threads outnumber the
  /// cores, so the peer we wait on may need our core) and then spins with
  /// exponentially growing bound.
  void pause() noexcept {
    count(Op::retry);
    std::this_thread::yield();
    for (std::uint32_t i = 0; i < cur_; ++i) {
      // Dependency chain the optimizer cannot remove but that costs ~1ns.
      asm volatile("" ::: "memory");
    }
    if (cur_ < max_) cur_ *= 2;
  }

  void reset() noexcept { cur_ = 1; }

 private:
  std::uint32_t cur_ = 1;
  std::uint32_t max_;
};

}  // namespace fompi
