//===- support/ResourceGuard.h - Global analysis budgets ------*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shared, thread-safe resource budget for one analysis (or one portfolio
/// race): a global cap on automaton states materialized across all
/// subtractions and complements.
///
/// The guard is advisory and cooperative, like the CancellationToken: the
/// difference engine and the NCSB oracles poll it through the existing
/// ShouldAbort budget hooks, so one exploding subtraction degrades the run
/// (abort -> word-only fallback or TIMEOUT verdict) instead of OOMing the
/// process. Charges are monotone and the trip is sticky: once a budget is
/// exceeded every subsequent poll reports exhaustion, which keeps abort
/// semantics consistent with the deadline/cancellation hooks.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_SUPPORT_RESOURCEGUARD_H
#define TERMCHECK_SUPPORT_RESOURCEGUARD_H

#include <atomic>
#include <cstdint>

namespace termcheck {

/// Shared budget meter. One instance per analysis run or portfolio race;
/// all members are safe to call concurrently.
class ResourceGuard {
public:
  /// Budget limits; 0 disables the cap.
  struct Limits {
    /// Total states (product + complement macro-states) across the run.
    uint64_t MaxStates = 0;
  };

  ResourceGuard() = default;
  explicit ResourceGuard(Limits L) : L(L) {}

  ResourceGuard(const ResourceGuard &) = delete;
  ResourceGuard &operator=(const ResourceGuard &) = delete;

  /// Records \p N freshly materialized states.
  void chargeStates(uint64_t N) noexcept {
    uint64_t Total = States.fetch_add(N, std::memory_order_relaxed) + N;
    if (L.MaxStates != 0 && Total > L.MaxStates)
      Tripped.store(true, std::memory_order_relaxed);
  }

  /// \returns true when charging \p Extra more states would cross the cap
  /// (without charging them). Used by in-flight constructions to abort
  /// before the damage is done.
  bool wouldExceed(uint64_t Extra) const noexcept {
    return L.MaxStates != 0 &&
           States.load(std::memory_order_relaxed) + Extra > L.MaxStates;
  }

  /// Sticky: true once the cap was crossed (or trip() was called).
  bool exhausted() const noexcept {
    return Tripped.load(std::memory_order_relaxed);
  }

  /// Trips the guard manually (a contained bad_alloc, an external monitor).
  void trip() noexcept { Tripped.store(true, std::memory_order_relaxed); }

  uint64_t statesCharged() const noexcept {
    return States.load(std::memory_order_relaxed);
  }

private:
  Limits L;
  std::atomic<uint64_t> States{0};
  std::atomic<bool> Tripped{false};
};

} // namespace termcheck

#endif // TERMCHECK_SUPPORT_RESOURCEGUARD_H
