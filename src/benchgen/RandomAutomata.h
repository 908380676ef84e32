//===- benchgen/RandomAutomata.h - Seeded automaton corpora ---*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded random generators for BAs, SDBAs, and ultimately periodic words.
/// The paper's Figure 4 corpus is the set of SDBAs Ultimate Automizer
/// produced on SV-Comp; our substitute corpus combines SDBAs harvested from
/// our own analysis runs with these generated SDBAs (see DESIGN.md,
/// substitutions). The property-based complement tests also sample from
/// these generators.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_BENCHGEN_RANDOMAUTOMATA_H
#define TERMCHECK_BENCHGEN_RANDOMAUTOMATA_H

#include "automata/Buchi.h"
#include "automata/Scc.h"
#include "support/Rng.h"

namespace termcheck {

/// Shape parameters for random automata.
struct RandomAutomatonSpec {
  uint32_t NumStates = 6;
  uint32_t NumSymbols = 2;
  /// Average outgoing transitions per (state, symbol).
  double Density = 1.3;
  /// Probability (percent) that a state is accepting.
  uint32_t AcceptPercent = 30;
};

/// Generates a random (complete) nondeterministic BA.
Buchi randomBa(Rng &R, const RandomAutomatonSpec &Spec);

/// Generates a random semideterministic BA: a nondeterministic Q1 part
/// feeding a deterministic Q2 part that holds all accepting states. The
/// result is complete and classifySdba-positive (normalization may still be
/// needed to satisfy the Section 2 entry-point requirements).
Buchi randomSdba(Rng &R, uint32_t NumQ1, uint32_t NumQ2, uint32_t NumSymbols,
                 double Density = 1.3, uint32_t AcceptPercent = 40);

/// Generates a random deterministic complete BA.
Buchi randomDba(Rng &R, uint32_t NumStates, uint32_t NumSymbols,
                uint32_t AcceptPercent = 30);

/// Samples a random ultimately periodic word u v^omega.
LassoWord randomLasso(Rng &R, uint32_t NumSymbols, uint32_t MaxStem,
                      uint32_t MaxLoop);

/// Shape parameters for class-mixed BAs (the modular-complement corpus).
/// Each block toggles one accepting-SCC class of SccClassify.h; a zero
/// count disables the block. The nondeterministic prefix feeds every
/// enabled block, so the automaton as a whole is nondeterministic while
/// each accepting SCC keeps its designed class.
struct ClassMixedSpec {
  uint32_t NumSymbols = 2;    ///< >= 2 (the block recipes use two symbols)
  uint32_t PrefixStates = 3;  ///< >= 1; nondeterministic, non-accepting
  uint32_t DetStates = 2;     ///< Deterministic SCC (clamped to >= 2)
  uint32_t WeakStates = 2;    ///< InertWeak SCC (closed, complete, accepting)
  uint32_t SemiStates = 2;    ///< Semideterministic SCC (+ a 2-state
                              ///< non-accepting nondeterministic escape tail
                              ///< that keeps its downstream nondeterministic)
  uint32_t GeneralStates = 2; ///< General SCC (clamped to >= 2)
};

/// Generates a seeded automaton mixing the four accepting-SCC classes.
/// The initial state always carries a nondeterministic fork, so the result
/// is never deterministic as a whole. The general block stays closed and
/// is entered only from the prefix, so the modular builder's rank
/// component sees at most PrefixStates + GeneralStates + 1 states; keep
/// that below RankComplementOracle::MaxInputStates when the build must
/// succeed.
Buchi randomClassMixedBa(Rng &R, const ClassMixedSpec &Spec);

} // namespace termcheck

#endif // TERMCHECK_BENCHGEN_RANDOMAUTOMATA_H
