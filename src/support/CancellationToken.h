//===- support/CancellationToken.h - Cooperative cancellation -*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cooperative cancellation flag shared between the portfolio driver and
/// the analyzer workers it races. The analysis loops never block on it;
/// they poll it at the same points the wall-clock budget is polled (the
/// refinement loop head, the difference engine's DFS, and the NCSB split
/// enumerations), so a losing configuration stuck deep inside a
/// subtraction still notices the winner within a bounded number of steps.
///
/// Cancellation is one-way and sticky: once cancel() is called the token
/// stays cancelled forever. Relaxed atomics suffice -- the token carries no
/// data, only a "stop soon" hint, and the portfolio joins its workers
/// before reading any of their results.
///
/// A token may follow a parent: it then also reports the parent's
/// cancellation. A portfolio race's token follows its caller's, so one
/// external cancel reaches every entrant while a winner still stops only
/// its own race.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_SUPPORT_CANCELLATIONTOKEN_H
#define TERMCHECK_SUPPORT_CANCELLATIONTOKEN_H

#include <atomic>

namespace termcheck {

/// A sticky, thread-safe "stop soon" flag.
class CancellationToken {
public:
  CancellationToken() = default;
  /// A token that is also cancelled once \p Parent is (null = none).
  /// \p Parent must outlive it.
  explicit CancellationToken(const CancellationToken *Parent) noexcept
      : Parent(Parent) {}
  CancellationToken(const CancellationToken &) = delete;
  CancellationToken &operator=(const CancellationToken &) = delete;

  /// Requests cancellation. Safe to call from any thread, any number of
  /// times.
  void cancel() noexcept { Flag.store(true, std::memory_order_relaxed); }

  /// \returns true once cancel() has been called on this token or its
  /// parent.
  bool cancelled() const noexcept {
    return Flag.load(std::memory_order_relaxed) ||
           (Parent && Parent->cancelled());
  }

private:
  std::atomic<bool> Flag{false};
  const CancellationToken *Parent = nullptr;
};

} // namespace termcheck

#endif // TERMCHECK_SUPPORT_CANCELLATIONTOKEN_H
