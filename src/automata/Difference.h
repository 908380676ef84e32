//===- automata/Difference.h - On-the-fly GBA \ BA difference -*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 4's difference construction: given a GBA A (the program paths
/// not yet certified) and a complement oracle for a BA B (the module just
/// certified), build the useful part of D with L(D) = L(A) \ L(B).
/// The three optimizations of the paper are all here:
///
///  1. the complement is built on the fly, only where the product visits it
///     (ComplementOracle),
///  2. useless states are removed during the search with Algorithm 1
///     (UselessStateRemover), and
///  3. the emp set is maintained as a subsumption antichain using the
///     oracle's relation (Section 6), so macro-states subsumed by a known
///     useless macro-state are pruned without exploration.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_AUTOMATA_DIFFERENCE_H
#define TERMCHECK_AUTOMATA_DIFFERENCE_H

#include "automata/ComplementOracle.h"
#include "automata/Scc.h"
#include "support/ResourceGuard.h"

namespace termcheck {

/// Tuning knobs for the difference construction.
struct DifferenceOptions {
  /// Use the subsumption antichain for the emp set (Section 6). When
  /// false, emp is an exact set (plain Algorithm 1).
  bool UseSubsumption = true;
  /// The caller only needs IsEmpty (language-inclusion queries): Algorithm
  /// 1 stops at the first accepting SCC and D is not materialized.
  bool EmptinessOnly = false;
  /// Optional budget hook; when it returns true the construction aborts
  /// and the result carries Aborted = true.
  std::function<bool()> ShouldAbort;
  /// Hard cap on live states (product states plus complement macro-states)
  /// of one construction, mirroring RankComplementOracle::MaxInputStates'
  /// role for the rank complement; 0 = unlimited. Crossing it aborts the
  /// construction with Aborted and HitStateCap both set, so the caller can
  /// degrade (word-only subtraction) instead of stopping the whole run.
  size_t MaxProductStates = 0;
  /// Optional shared resource budget (non-owning). The construction aborts
  /// when the guard is exhausted or its remaining headroom cannot hold the
  /// live states, and charges the guard for everything it materialized
  /// when it completes.
  ResourceGuard *Guard = nullptr;
};

/// Result of a difference construction.
struct DifferenceResult {
  /// The useful part of A x B-bar, with numConditions(A) + 1 acceptance
  /// conditions (the extra one is the complement's).
  Buchi D;
  /// True when L(A) subseteq L(B) (the difference is empty).
  bool IsEmpty = true;
  /// Product states whose successors were expanded.
  size_t ProductStatesExplored = 0;
  /// Macro-states the complement oracle materialized on the way.
  size_t ComplementStatesDiscovered = 0;
  /// True when the run hit any budget (ShouldAbort, MaxProductStates, or
  /// the ResourceGuard); D is then meaningless.
  bool Aborted = false;
  /// True when the abort was a state-count cap (MaxProductStates or the
  /// guard's headroom), as opposed to the sticky deadline/cancellation
  /// hook: the caller may retry with a cheaper construction.
  bool HitStateCap = false;
  /// Macro-states pruned without exploration because a subsumping member
  /// of the emp antichain was already known useless (Section 6). Zero when
  /// subsumption is off.
  size_t SubsumptionPruned = 0;
  /// Product arcs memoized by the on-the-fly product: each is computed once
  /// during the search and replayed from the cache during materialization.
  size_t ArcsMemoized = 0;
};

/// Computes the useful part of L(A) \ L(B-bar-source). \p A provides k
/// acceptance conditions; the result has k + 1.
DifferenceResult difference(const Buchi &A, ComplementOracle &BC,
                            const DifferenceOptions &Opts = {});

} // namespace termcheck

#endif // TERMCHECK_AUTOMATA_DIFFERENCE_H
