//===- tests/scc_test.cpp - Emptiness, Algorithm 1, lasso extraction ------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "automata/Scc.h"

#include "NaiveEmptiness.h"
#include "automata/Ops.h"
#include "benchgen/RandomAutomata.h"

#include <gtest/gtest.h>

using namespace termcheck;

namespace {

TEST(Emptiness, EmptyAutomaton) {
  Buchi A(1, 1);
  EXPECT_TRUE(isEmpty(A));
}

TEST(Emptiness, AcceptingSelfLoop) {
  Buchi A(1, 1);
  State S = A.addState();
  A.addInitial(S);
  A.setAccepting(S);
  A.addTransition(S, 0, S);
  EXPECT_FALSE(isEmpty(A));
}

TEST(Emptiness, NonAcceptingLoopIsEmpty) {
  Buchi A(1, 1);
  State S = A.addState();
  A.addInitial(S);
  A.addTransition(S, 0, S);
  EXPECT_TRUE(isEmpty(A));
}

TEST(Emptiness, AcceptingStateWithoutCycleIsEmpty) {
  Buchi A(1, 1);
  State S0 = A.addState(), S1 = A.addState();
  A.addInitial(S0);
  A.setAccepting(S1);
  A.addTransition(S0, 0, S1);
  EXPECT_TRUE(isEmpty(A));
}

TEST(Emptiness, GeneralizedNeedsAllConditions) {
  // Self-loop covering only condition 0 of 2: empty.
  Buchi A(1, 2);
  State S = A.addState();
  A.addInitial(S);
  A.setAccepting(S, 0);
  A.addTransition(S, 0, S);
  EXPECT_TRUE(isEmpty(A));
  // Cover condition 1 on a second state in the same cycle: nonempty.
  State T = A.addState();
  A.setAccepting(T, 1);
  A.addTransition(S, 0, T);
  A.addTransition(T, 0, S);
  EXPECT_FALSE(isEmpty(A));
}

TEST(Emptiness, AcceptanceSplitAcrossDisconnectedSccsIsEmpty) {
  Buchi A(1, 2);
  State S = A.addState(), T = A.addState();
  A.addInitial(S);
  A.setAccepting(S, 0);
  A.setAccepting(T, 1);
  A.addTransition(S, 0, S);
  A.addTransition(S, 0, T);
  A.addTransition(T, 0, T);
  EXPECT_TRUE(isEmpty(A)); // no single SCC covers both conditions
}

//===----------------------------------------------------------------------===//
// Algorithm 1
//===----------------------------------------------------------------------===//

/// Naive reference: a state is useful iff the automaton with that state as
/// the only initial state is nonempty by the oracle of NaiveEmptiness.h,
/// which shares no code with Algorithm 1.
std::vector<bool> naiveUseful(const Buchi &A) {
  std::vector<bool> Useful(A.numStates(), false);
  StateSet Reach = A.reachableStates();
  for (State S : Reach.elems()) {
    // Rebuild with single initial state S.
    Buchi Probe(A.numSymbols(), A.numConditions());
    Probe.addStates(A.numStates());
    for (State Q = 0; Q < A.numStates(); ++Q) {
      Probe.setAcceptMask(Q, A.acceptMask(Q));
      for (const Buchi::Arc &Arc : A.arcsFrom(Q))
        Probe.addTransition(Q, Arc.Sym, Arc.To);
    }
    Probe.addInitial(S);
    Useful[S] = !naiveIsEmpty(Probe);
  }
  return Useful;
}

TEST(Algorithm1, ClassifiesPaperShapedExample) {
  // accepting cycle {0,1}; state 2 reaches it; state 3 is a dead end;
  // state 4 loops without acceptance.
  Buchi A(2, 1);
  A.addStates(5);
  A.addInitial(2);
  A.setAccepting(0);
  A.addTransition(0, 0, 1);
  A.addTransition(1, 0, 0);
  A.addTransition(2, 0, 0);
  A.addTransition(2, 1, 3);
  A.addTransition(2, 1, 4);
  A.addTransition(4, 0, 4);

  ExplicitGbaSource Src(A);
  UselessStateRemover Remover;
  RemoveUselessResult R = Remover.run(Src);
  EXPECT_FALSE(R.LanguageEmpty);
  StateSet Useful(R.Useful);
  EXPECT_TRUE(Useful.contains(0));
  EXPECT_TRUE(Useful.contains(1));
  EXPECT_TRUE(Useful.contains(2));
  EXPECT_FALSE(Useful.contains(3));
  EXPECT_FALSE(Useful.contains(4));
}

TEST(Algorithm1, EmptyLanguageClassifiesAllUseless) {
  Buchi A(1, 1);
  A.addStates(3);
  A.addInitial(0);
  A.addTransition(0, 0, 1);
  A.addTransition(1, 0, 2);
  A.addTransition(2, 0, 0);
  ExplicitGbaSource Src(A);
  UselessStateRemover Remover;
  RemoveUselessResult R = Remover.run(Src);
  EXPECT_TRUE(R.LanguageEmpty);
  EXPECT_TRUE(R.Useful.empty());
}

TEST(Algorithm1, PropertyMatchesNaiveClassification) {
  Rng R(2024);
  for (int Iter = 0; Iter < 120; ++Iter) {
    RandomAutomatonSpec Spec;
    Spec.NumStates = 2 + static_cast<uint32_t>(R.below(8));
    Spec.NumSymbols = 1 + static_cast<uint32_t>(R.below(3));
    Spec.AcceptPercent = 25;
    Buchi A = randomBa(R, Spec);

    ExplicitGbaSource Src(A);
    UselessStateRemover Remover;
    RemoveUselessResult Res = Remover.run(Src);
    StateSet Useful(Res.Useful);
    std::vector<bool> Expect = naiveUseful(A);
    StateSet Reach = A.reachableStates();
    for (State S : Reach.elems())
      EXPECT_EQ(Useful.contains(S), Expect[S])
          << "state " << S << " misclassified\n" << A.str();
    EXPECT_EQ(Res.LanguageEmpty, naiveIsEmpty(A));
  }
}

TEST(Algorithm1, RestrictionToUsefulPreservesLanguage) {
  Rng R(555);
  for (int Iter = 0; Iter < 60; ++Iter) {
    RandomAutomatonSpec Spec;
    Spec.NumStates = 3 + static_cast<uint32_t>(R.below(6));
    Spec.NumSymbols = 2;
    Buchi A = randomBa(R, Spec);
    ExplicitGbaSource Src(A);
    UselessStateRemover Remover;
    RemoveUselessResult Res = Remover.run(Src);
    Buchi Pruned = restrictToStates(A, StateSet(Res.Useful));
    for (int W = 0; W < 20; ++W) {
      LassoWord L = randomLasso(R, Spec.NumSymbols, 3, 3);
      EXPECT_EQ(acceptsLasso(A, L), acceptsLasso(Pruned, L))
          << "membership diverged after pruning";
    }
  }
}

//===----------------------------------------------------------------------===//
// Lasso extraction and membership
//===----------------------------------------------------------------------===//

TEST(Lasso, MembershipBasics) {
  // A accepts exactly (01)^omega up to rotation of start.
  Buchi A(2, 1);
  A.addStates(2);
  A.addInitial(0);
  A.setAccepting(0);
  A.addTransition(0, 0, 1);
  A.addTransition(1, 1, 0);
  EXPECT_TRUE(acceptsLasso(A, {{}, {0, 1}}));
  EXPECT_TRUE(acceptsLasso(A, {{0}, {1, 0}}));
  EXPECT_FALSE(acceptsLasso(A, {{}, {0}}));
  EXPECT_FALSE(acceptsLasso(A, {{1}, {0, 1}}));
}

TEST(Lasso, MembershipUnrolledLoopEquivalence) {
  Rng R(99);
  for (int Iter = 0; Iter < 50; ++Iter) {
    RandomAutomatonSpec Spec;
    Spec.NumStates = 4 + static_cast<uint32_t>(R.below(4));
    Spec.NumSymbols = 2;
    Buchi A = randomBa(R, Spec);
    LassoWord W = randomLasso(R, 2, 2, 3);
    // u v^omega == (u v) v^omega.
    LassoWord W2 = W;
    for (Symbol S : W.Loop)
      W2.Stem.push_back(S);
    EXPECT_EQ(acceptsLasso(A, W), acceptsLasso(A, W2));
    // and == u (v v)^omega.
    LassoWord W3 = W;
    for (Symbol S : W.Loop)
      W3.Loop.push_back(S);
    EXPECT_EQ(acceptsLasso(A, W), acceptsLasso(A, W3));
  }
}

TEST(Lasso, ExtractionFindsAcceptedWord) {
  Buchi A(6, 1);
  A.addStates(5);
  for (State S = 0; S < 5; ++S)
    A.setAccepting(S);
  A.addInitial(0);
  A.addTransition(0, 0, 1);
  A.addTransition(1, 1, 2);
  A.addTransition(2, 2, 3);
  A.addTransition(3, 3, 2);
  A.addTransition(2, 4, 4);
  A.addTransition(4, 5, 0);
  auto W = findAcceptingLasso(A);
  ASSERT_TRUE(W.has_value());
  EXPECT_FALSE(W->Loop.empty());
  EXPECT_TRUE(acceptsLasso(A, *W));
}

TEST(Lasso, ExtractionReturnsNulloptOnEmpty) {
  Buchi A(1, 1);
  State S = A.addState();
  A.addInitial(S);
  A.addTransition(S, 0, S); // no acceptance
  EXPECT_FALSE(findAcceptingLasso(A).has_value());
}

TEST(Lasso, ExtractionCoversAllConditions) {
  // Conditions 0 and 1 sit on different states of one big cycle.
  Buchi A(2, 2);
  A.addStates(3);
  A.addInitial(0);
  A.setAccepting(1, 0);
  A.setAccepting(2, 1);
  A.addTransition(0, 0, 1);
  A.addTransition(1, 1, 2);
  A.addTransition(2, 0, 1);
  auto W = findAcceptingLasso(A);
  ASSERT_TRUE(W.has_value());
  EXPECT_TRUE(acceptsLasso(A, *W));
}

TEST(Lasso, PropertyExtractionAgreesWithEmptiness) {
  Rng R(31415);
  for (int Iter = 0; Iter < 150; ++Iter) {
    RandomAutomatonSpec Spec;
    Spec.NumStates = 2 + static_cast<uint32_t>(R.below(10));
    Spec.NumSymbols = 1 + static_cast<uint32_t>(R.below(3));
    Spec.AcceptPercent = 20;
    Buchi A = randomBa(R, Spec);
    auto W = findAcceptingLasso(A);
    EXPECT_EQ(W.has_value(), !isEmpty(A));
    if (W) {
      EXPECT_TRUE(acceptsLasso(A, *W)) << A.str() << "\nword " << W->str();
    }
  }
}

} // namespace
