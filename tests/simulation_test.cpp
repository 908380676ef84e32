//===- tests/simulation_test.cpp - Early simulation tests (Section 6.1) ---===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "automata/Simulation.h"

#include "automata/Ncsb.h"
#include "automata/Scc.h"
#include "benchgen/RandomAutomata.h"

#include <gtest/gtest.h>

using namespace termcheck;

namespace {

/// Probes L(P) subseteq L(R) on sampled ultimately periodic words by
/// re-rooting the automaton.
bool inclusionHolds(const Buchi &A, State P, State R, Rng &WordRng,
                    int NumWords) {
  Buchi FromP(A.numSymbols(), 1), FromR(A.numSymbols(), 1);
  FromP.addStates(A.numStates());
  FromR.addStates(A.numStates());
  for (State S = 0; S < A.numStates(); ++S) {
    FromP.setAcceptMask(S, A.acceptMask(S));
    FromR.setAcceptMask(S, A.acceptMask(S));
    for (const Buchi::Arc &Arc : A.arcsFrom(S)) {
      FromP.addTransition(S, Arc.Sym, Arc.To);
      FromR.addTransition(S, Arc.Sym, Arc.To);
    }
  }
  FromP.addInitial(P);
  FromR.addInitial(R);
  for (int W = 0; W < NumWords; ++W) {
    LassoWord L = randomLasso(WordRng, A.numSymbols(), 3, 3);
    if (acceptsLasso(FromP, L) && !acceptsLasso(FromR, L))
      return false;
  }
  return true;
}

TEST(EarlySimulation, ReflexiveOnEveryState) {
  Rng R(11);
  RandomAutomatonSpec Spec;
  Spec.NumStates = 6;
  Buchi A = randomBa(R, Spec);
  for (SimulationKind K : {SimulationKind::Early, SimulationKind::EarlyPlus1}) {
    SimulationRelation Sim = computeEarlySimulation(A, K);
    for (State S = 0; S < A.numStates(); ++S)
      EXPECT_TRUE(Sim.simulates(S, S)) << "not reflexive at " << S;
  }
}

TEST(EarlySimulation, IdenticalTwinsSimulateEachOther) {
  // Two copies of the same loop: cross-simulation must hold.
  Buchi A(1, 1);
  A.addStates(4);
  A.setAccepting(0);
  A.setAccepting(2);
  A.addTransition(0, 0, 1);
  A.addTransition(1, 0, 0);
  A.addTransition(2, 0, 3);
  A.addTransition(3, 0, 2);
  A.addInitial(0);
  SimulationRelation Sim =
      computeEarlySimulation(A, SimulationKind::Early);
  EXPECT_TRUE(Sim.simulates(0, 2));
  EXPECT_TRUE(Sim.simulates(2, 0));
  EXPECT_TRUE(Sim.simulates(1, 3));
}

TEST(EarlySimulation, LateAcceptanceBreaksEarlyButNotPlus1) {
  // p accepts immediately each round; r accepts one step later. Early
  // simulation of p by r fails at the start (the i = -1 window), but
  // early+1 holds because between two accepting p-visits r also accepts.
  Buchi A(1, 1);
  A.addStates(4);
  // p-cycle: 0(acc) -> 1 -> 0 ; r-cycle: 2 -> 3(acc) -> 2.
  A.setAccepting(0);
  A.addTransition(0, 0, 1);
  A.addTransition(1, 0, 0);
  A.setAccepting(3);
  A.addTransition(2, 0, 3);
  A.addTransition(3, 0, 2);
  A.addInitial(0);
  SimulationRelation Early =
      computeEarlySimulation(A, SimulationKind::Early);
  SimulationRelation Plus1 =
      computeEarlySimulation(A, SimulationKind::EarlyPlus1);
  EXPECT_FALSE(Early.simulates(0, 2));
  EXPECT_TRUE(Plus1.simulates(0, 2));
}

TEST(EarlySimulation, Proposition61EarlyWithinPlus1) {
  // The first inclusion of Proposition 6.1 on random automata.
  Rng R(303);
  for (int Iter = 0; Iter < 40; ++Iter) {
    RandomAutomatonSpec Spec;
    Spec.NumStates = 3 + static_cast<uint32_t>(R.below(5));
    Spec.NumSymbols = 2;
    Buchi A = randomBa(R, Spec);
    SimulationRelation Early =
        computeEarlySimulation(A, SimulationKind::Early);
    SimulationRelation Plus1 =
        computeEarlySimulation(A, SimulationKind::EarlyPlus1);
    for (State P = 0; P < A.numStates(); ++P)
      for (State Q = 0; Q < A.numStates(); ++Q)
        if (Early.simulates(P, Q)) {
          EXPECT_TRUE(Plus1.simulates(P, Q))
              << "early not within early+1 at (" << P << "," << Q << ")";
        }
  }
}

TEST(EarlySimulation, Proposition61UnderapproximatesInclusion) {
  // The second inclusion of Proposition 6.1, probed on sampled words.
  Rng R(404);
  for (int Iter = 0; Iter < 30; ++Iter) {
    RandomAutomatonSpec Spec;
    Spec.NumStates = 3 + static_cast<uint32_t>(R.below(4));
    Spec.NumSymbols = 2;
    Buchi A = randomBa(R, Spec);
    SimulationRelation Plus1 =
        computeEarlySimulation(A, SimulationKind::EarlyPlus1);
    for (State P = 0; P < A.numStates(); ++P) {
      for (State Q = 0; Q < A.numStates(); ++Q) {
        if (!Plus1.simulates(P, Q))
          continue;
        Rng WordRng(Iter * 1000 + P * 10 + Q);
        EXPECT_TRUE(inclusionHolds(A, P, Q, WordRng, 15))
            << "simulation without language inclusion at (" << P << ","
            << Q << ")";
      }
    }
  }
}

TEST(EarlySimulation, Lemma62SubsumptionIsEarlySimulation) {
  // On NCSB-Original complements, p [= r implies p early+1-simulated by r
  // and p [=_B r implies p early-simulated by r (Lemma 6.2). Materialized
  // state ids coincide with oracle ids (discovery order).
  Rng R(505);
  for (int Iter = 0; Iter < 12; ++Iter) {
    Buchi In = randomSdba(R, 2, 3, 2);
    auto S = prepareSdba(In);
    ASSERT_TRUE(S.has_value());
    NcsbOracle O(*S, NcsbVariant::Original);
    Buchi C = O.materialize();
    if (C.numStates() > 40)
      continue; // keep the n^2 game affordable
    SimulationRelation Plus1 =
        computeEarlySimulation(C, SimulationKind::EarlyPlus1);
    SimulationRelation Early =
        computeEarlySimulation(C, SimulationKind::Early);
    uint32_t N = C.numStates();
    for (State P = 0; P < N; ++P) {
      for (State Q = 0; Q < N; ++Q) {
        if (P == Q)
          continue;
        const NcsbMacroState &MP = O.macroState(P);
        const NcsbMacroState &MQ = O.macroState(Q);
        bool Sub = MP.N().supersetOf(MQ.N()) && MP.C().supersetOf(MQ.C()) &&
                   MP.S().supersetOf(MQ.S());
        bool SubB = Sub && MP.B().supersetOf(MQ.B());
        if (Sub) {
          EXPECT_TRUE(Plus1.simulates(P, Q))
              << "Lemma 6.2 (14) violated: " << MP.str() << " [= "
              << MQ.str();
        }
        if (SubB) {
          EXPECT_TRUE(Early.simulates(P, Q))
              << "Lemma 6.2 (15) violated: " << MP.str() << " [=_B "
              << MQ.str();
        }
      }
    }
  }
}

TEST(EarlySimulation, PairCountCountsRelatedPairs) {
  Buchi A(1, 1);
  State S = A.addState();
  A.addInitial(S);
  A.addTransition(S, 0, S);
  SimulationRelation Sim = computeEarlySimulation(A, SimulationKind::Early);
  EXPECT_EQ(Sim.pairCount(), 1u);
}


TEST(DirectSimulation, QuotientPreservesLanguage) {
  Rng R(606);
  for (int Iter = 0; Iter < 60; ++Iter) {
    RandomAutomatonSpec Spec;
    Spec.NumStates = 3 + static_cast<uint32_t>(R.below(6));
    Spec.NumSymbols = 2;
    Buchi A = randomBa(R, Spec);
    Buchi Q = quotientByDirectSimulation(A);
    EXPECT_LE(Q.numStates(), A.numStates());
    for (int W = 0; W < 25; ++W) {
      LassoWord L = randomLasso(R, 2, 3, 3);
      EXPECT_EQ(acceptsLasso(A, L), acceptsLasso(Q, L))
          << "quotient changed membership of " << L.str();
    }
  }
}

TEST(DirectSimulation, MergesObviousDuplicates) {
  // Two bit-identical accepting self-loop states must merge.
  Buchi A(1, 1);
  A.addStates(3);
  A.addInitial(0);
  A.setAccepting(1);
  A.setAccepting(2);
  A.addTransition(0, 0, 1);
  A.addTransition(0, 0, 2);
  A.addTransition(1, 0, 1);
  A.addTransition(2, 0, 2);
  Buchi Q = quotientByDirectSimulation(A);
  EXPECT_EQ(Q.numStates(), 2u);
}

TEST(DirectSimulation, RespectsAcceptanceMarks) {
  Buchi A(1, 1);
  A.addStates(2);
  A.addInitial(0);
  A.setAccepting(1);
  A.addTransition(0, 0, 0);
  A.addTransition(1, 0, 1);
  SimulationRelation Sim = computeDirectSimulation(A);
  EXPECT_TRUE(Sim.simulates(0, 1)); // non-accepting below accepting
  EXPECT_FALSE(Sim.simulates(1, 0));
}

TEST(DirectSimulation, DirectWithinLanguageInclusion) {
  Rng R(607);
  for (int Iter = 0; Iter < 25; ++Iter) {
    RandomAutomatonSpec Spec;
    Spec.NumStates = 3 + static_cast<uint32_t>(R.below(4));
    Spec.NumSymbols = 2;
    Buchi A = randomBa(R, Spec);
    SimulationRelation Sim = computeDirectSimulation(A);
    for (State P = 0; P < A.numStates(); ++P) {
      for (State Q = 0; Q < A.numStates(); ++Q) {
        if (!Sim.simulates(P, Q))
          continue;
        Rng WordRng(Iter * 997 + P * 31 + Q);
        EXPECT_TRUE(inclusionHolds(A, P, Q, WordRng, 12))
            << "direct simulation without inclusion at (" << P << "," << Q
            << ")";
      }
    }
  }
}

} // namespace
