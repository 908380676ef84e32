//===- automata/ComplementOracle.h - On-the-fly complements ---*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-the-fly interface behind optimization 1 of Section 4: "B-bar is
/// constructed on the fly when constructing the product, i.e., only those
/// states of B-bar that occur in some product state are constructed". Every
/// complementation procedure in this library (finite-trace, DBA, NCSB
/// original/lazy, rank-based) implements this interface; the difference
/// engine and Algorithm 1 then drive it lazily, and Figure 4's benches
/// materialize it eagerly to count states and transitions.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_AUTOMATA_COMPLEMENTORACLE_H
#define TERMCHECK_AUTOMATA_COMPLEMENTORACLE_H

#include "automata/Buchi.h"

#include <functional>

namespace termcheck {

/// A lazily constructed complement BA. Implementations intern their
/// macro-states and hand out dense ids.
class ComplementOracle {
public:
  virtual ~ComplementOracle() = default;

  /// Optional cooperative-cancellation hook. Oracles whose successor
  /// enumeration can be super-linear (the NCSB 2^|Free| split loops) poll
  /// it between emissions; when it returns true they stop enumerating,
  /// set \ref aborted, and return a truncated (unsound) successor list.
  /// The difference engine checks aborted() after its search and discards
  /// the whole construction, so truncation never leaks into a result.
  std::function<bool()> ShouldAbort;

  /// Sets how many pollAbort() calls pass between two real evaluations of
  /// ShouldAbort. The default stride (256) is right for pure wall-clock /
  /// cancellation hooks; budget enforcement (state caps, resource guards)
  /// installs a small stride so small constructions cannot finish -- or
  /// overshoot the budget -- entirely between polls.
  void setPollStride(uint32_t Stride) {
    PollStride = Stride == 0 ? 1 : Stride;
    AbortPollCountdown = PollStride;
  }

  /// \returns true once a successor enumeration was cut short by
  /// ShouldAbort; every result derived from this oracle is then invalid.
  bool aborted() const { return Aborted; }

  /// The alphabet size (matches the complemented automaton).
  virtual uint32_t numSymbols() const = 0;

  /// Initial macro-states (deterministic order).
  virtual std::vector<State> initialStates() = 0;

  /// Appends the \p Sym successors of \p S to \p Out (deterministic order).
  virtual void successors(State S, Symbol Sym, std::vector<State> &Out) = 0;

  /// \returns true when \p S is an accepting macro-state.
  virtual bool isAccepting(State S) = 0;

  /// Number of macro-states discovered so far.
  virtual size_t numStatesDiscovered() const = 0;

  /// Subsumption for Section 6's antichain: \returns true when
  /// L(Sub) subseteq L(Sup) is guaranteed by the oracle's relation
  /// (`Sub [=' Sup`). The default is plain equality, which is always sound.
  virtual bool subsumedBy(State Sub, State Sup) const { return Sub == Sup; }

  /// Eagerly explores every reachable macro-state into an explicit BA
  /// (acceptance condition 0 = oracle acceptance). Used by the Figure 4
  /// benchmarks, where complement sizes themselves are the measurement.
  Buchi materialize();

protected:
  /// Polls ShouldAbort every few hundred calls (cheap enough for inner
  /// loops); latches \ref Aborted on the first positive answer.
  bool pollAbort() {
    if (Aborted)
      return true;
    if (!ShouldAbort)
      return false;
    if (--AbortPollCountdown != 0)
      return false;
    AbortPollCountdown = PollStride;
    if (ShouldAbort())
      Aborted = true;
    return Aborted;
  }

private:
  bool Aborted = false;
  uint32_t PollStride = 256;
  uint32_t AbortPollCountdown = 256;
};

} // namespace termcheck

#endif // TERMCHECK_AUTOMATA_COMPLEMENTORACLE_H
