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

/// Renames the states of \p A by a random injection into [0, \p NumStates)
/// (NumStates >= A.numStates()); the unused ids are isolated states. A
/// small automaton scattered this way keeps its language while its state
/// sets straddle several 64-bit words.
Buchi scatterStates(Rng &R, const Buchi &A, uint32_t NumStates);

/// Samples a random ultimately periodic word u v^omega.
LassoWord randomLasso(Rng &R, uint32_t NumSymbols, uint32_t MaxStem,
                      uint32_t MaxLoop);

} // namespace termcheck

#endif // TERMCHECK_BENCHGEN_RANDOMAUTOMATA_H
