//===- tests/ncsb_test.cpp - NCSB-Original / NCSB-Lazy unit tests ---------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "automata/Ncsb.h"

#include "automata/Scc.h"
#include "benchgen/RandomAutomata.h"

#include <gtest/gtest.h>

using namespace termcheck;

namespace {

/// DBA over {a=0, b=1} accepting "infinitely many a".
Buchi infinitelyManyA() {
  Buchi A(2, 1);
  A.addStates(2);
  A.addInitial(0);
  A.setAccepting(0); // state 0: just read a
  A.addTransition(0, 0, 0);
  A.addTransition(0, 1, 1);
  A.addTransition(1, 0, 0);
  A.addTransition(1, 1, 1);
  return A;
}

class NcsbTest : public ::testing::TestWithParam<NcsbVariant> {};

TEST_P(NcsbTest, InitialMacroStateShape) {
  Buchi A = infinitelyManyA();
  auto S = prepareSdba(A);
  ASSERT_TRUE(S.has_value());
  NcsbOracle O(*S, GetParam());
  auto Inits = O.initialStates();
  ASSERT_EQ(Inits.size(), 1u);
  const NcsbMacroState &M = O.macroState(Inits[0]);
  // The initial state of the DBA is accepting, hence in Q2: C = B = {q0}.
  EXPECT_TRUE(M.N().empty());
  EXPECT_EQ(M.C().size(), 1u);
  EXPECT_EQ(M.B(), M.C());
  EXPECT_TRUE(M.S().empty());
}

TEST_P(NcsbTest, ComplementOfInfinitelyManyA) {
  Buchi A = infinitelyManyA();
  auto S = prepareSdba(A);
  ASSERT_TRUE(S.has_value());
  NcsbOracle O(*S, GetParam());
  Buchi C = O.materialize();
  // Complement language: finitely many a (eventually only b).
  EXPECT_TRUE(acceptsLasso(C, {{}, {1}}));        // b^omega
  EXPECT_TRUE(acceptsLasso(C, {{0, 0, 1}, {1}})); // aab b^omega
  EXPECT_FALSE(acceptsLasso(C, {{}, {0}}));       // a^omega
  EXPECT_FALSE(acceptsLasso(C, {{1}, {0, 1}}));   // b (ab)^omega
}

TEST_P(NcsbTest, ComplementOfUniversalIsEmpty) {
  // One accepting state with self-loops accepts Sigma^omega.
  Buchi A(2, 1);
  State Q = A.addState();
  A.addInitial(Q);
  A.setAccepting(Q);
  A.addTransition(Q, 0, Q);
  A.addTransition(Q, 1, Q);
  auto S = prepareSdba(A);
  ASSERT_TRUE(S.has_value());
  NcsbOracle O(*S, GetParam());
  EXPECT_TRUE(isEmpty(O.materialize()));
}

TEST_P(NcsbTest, ComplementOfEmptyIsUniversal) {
  // No accepting state at all: L(A) = empty.
  Buchi A(2, 1);
  State Q = A.addState();
  A.addInitial(Q);
  A.addTransition(Q, 0, Q);
  A.addTransition(Q, 1, Q);
  auto S = prepareSdba(A);
  ASSERT_TRUE(S.has_value());
  NcsbOracle O(*S, GetParam());
  Buchi C = O.materialize();
  EXPECT_TRUE(acceptsLasso(C, {{}, {0}}));
  EXPECT_TRUE(acceptsLasso(C, {{}, {1}}));
  EXPECT_TRUE(acceptsLasso(C, {{0, 1}, {1, 0}}));
}

TEST_P(NcsbTest, MacroStateInvariants) {
  Rng R(17);
  Buchi A = randomSdba(R, 3, 4, 2);
  auto S = prepareSdba(A);
  ASSERT_TRUE(S.has_value());
  NcsbOracle O(*S, GetParam());
  Buchi C = O.materialize();
  (void)C;
  for (State Id = 0; Id < O.numStatesDiscovered(); ++Id) {
    const NcsbMacroState &M = O.macroState(static_cast<State>(Id));
    // The decoded parts are values: bind each to a local before iterating.
    StateSet MN = M.N(), MC = M.C(), MS = M.S(), MB = M.B();
    // B subseteq C (Definition 5.1) and S avoids accepting states.
    EXPECT_TRUE(MB.subsetOf(MC));
    for (State Q : MS.elems())
      EXPECT_FALSE(S->isAccepting(Q));
    // N stays in Q1; C, S, B stay in Q2.
    for (State Q : MN.elems())
      EXPECT_FALSE(S->inQ2(Q));
    StateSet CS = MC.unionWith(MS);
    for (State Q : CS.elems())
      EXPECT_TRUE(S->inQ2(Q));
  }
}

TEST_P(NcsbTest, SubsumptionImpliesLanguageInclusion) {
  // Theorem 6.3 / 6.4 checked empirically on the materialized complement.
  Rng R(23);
  Buchi A = randomSdba(R, 2, 3, 2);
  auto S = prepareSdba(A);
  ASSERT_TRUE(S.has_value());
  NcsbOracle O(*S, GetParam());
  Buchi C = O.materialize();
  // Recover oracle-id -> explicit-id mapping by re-materializing: instead,
  // test inclusion on the oracle side by probing lassos from each pair of
  // subsumed macro-states via explicit automata with adjusted initials.
  uint32_t N = static_cast<uint32_t>(O.numStatesDiscovered());
  // The materialized automaton enumerates states in discovery order, so
  // oracle ids and explicit ids coincide (materialize() interns ids in the
  // same order the oracle hands them out).
  for (State P = 0; P < N; ++P) {
    for (State Q = 0; Q < N; ++Q) {
      if (P == Q || !O.subsumedBy(P, Q))
        continue;
      // Same automaton, different initial states.
      Buchi ProbeP(C.numSymbols(), 1), ProbeQ(C.numSymbols(), 1);
      ProbeP.addStates(C.numStates());
      ProbeQ.addStates(C.numStates());
      for (State X = 0; X < C.numStates(); ++X) {
        ProbeP.setAcceptMask(X, C.acceptMask(X));
        ProbeQ.setAcceptMask(X, C.acceptMask(X));
        for (const Buchi::Arc &Arc : C.arcsFrom(X)) {
          ProbeP.addTransition(X, Arc.Sym, Arc.To);
          ProbeQ.addTransition(X, Arc.Sym, Arc.To);
        }
      }
      ProbeP.addInitial(P);
      ProbeQ.addInitial(Q);
      Rng WordRng(P * 31 + Q);
      for (int W = 0; W < 10; ++W) {
        LassoWord L = randomLasso(WordRng, 2, 2, 3);
        if (acceptsLasso(ProbeP, L)) {
          EXPECT_TRUE(acceptsLasso(ProbeQ, L))
              << "subsumption violated language inclusion";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothVariants, NcsbTest,
                         ::testing::Values(NcsbVariant::Original,
                                           NcsbVariant::Lazy),
                         [](const auto &Info) {
                           return Info.param == NcsbVariant::Original
                                      ? "Original"
                                      : "Lazy";
                         });

TEST(NcsbLazy, Proposition52LazyNeverLarger) {
  Rng R(4242);
  for (int Iter = 0; Iter < 60; ++Iter) {
    uint32_t Q1 = 1 + static_cast<uint32_t>(R.below(3));
    uint32_t Q2 = 1 + static_cast<uint32_t>(R.below(4));
    uint32_t Symbols = 1 + static_cast<uint32_t>(R.below(2));
    Buchi A = randomSdba(R, Q1, Q2, Symbols);
    auto S = prepareSdba(A);
    ASSERT_TRUE(S.has_value());
    NcsbOracle Orig(*S, NcsbVariant::Original);
    NcsbOracle Lazy(*S, NcsbVariant::Lazy);
    Buchi CO = Orig.materialize();
    Buchi CL = Lazy.materialize();
    EXPECT_LE(CL.numStates(), CO.numStates())
        << "Proposition 5.2 violated";
  }
}

TEST(NcsbLazy, BothVariantsAgreeOnLanguage) {
  Rng R(90210);
  for (int Iter = 0; Iter < 40; ++Iter) {
    uint32_t Q1 = 1 + static_cast<uint32_t>(R.below(3));
    uint32_t Q2 = 1 + static_cast<uint32_t>(R.below(3));
    uint32_t Symbols = 1 + static_cast<uint32_t>(R.below(2));
    Buchi A = randomSdba(R, Q1, Q2, Symbols);
    auto S = prepareSdba(A);
    ASSERT_TRUE(S.has_value());
    Buchi CO = NcsbOracle(*S, NcsbVariant::Original).materialize();
    Buchi CL = NcsbOracle(*S, NcsbVariant::Lazy).materialize();
    for (int W = 0; W < 25; ++W) {
      LassoWord L = randomLasso(R, Symbols, 2, 3);
      EXPECT_EQ(acceptsLasso(CO, L), acceptsLasso(CL, L))
          << "variants disagree on " << L.str();
    }
  }
}

} // namespace
