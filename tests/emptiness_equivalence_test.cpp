//===- tests/emptiness_equivalence_test.cpp - Emptiness vs naive oracle ---===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The differential gate for the one emptiness engine, Algorithm 1
/// (UselessStateRemover), against the naive oracle of NaiveEmptiness.h:
///
///  * 220 seeded (A, NCSB-Lazy(B)) products: difference() emptiness-only
///    and materialized, each with subsumption on and off, must agree with
///    the oracle on intersect(A, materialize(NCSB(B))); a materialized
///    difference has states iff it is nonempty, and its lasso is a word of
///    L(A) \ L(B) replayed against the originals,
///  * isIncludedIn on the same corpus,
///  * isEmpty on explicit GBAs: hand-built shapes, random BAs, and
///    2-condition GBAs before and after degeneralize; every lasso
///    findAcceptingLasso returns must be accepted.
///
//===----------------------------------------------------------------------===//

#include "NaiveEmptiness.h"

#include "automata/Difference.h"
#include "automata/Ncsb.h"
#include "automata/Ops.h"
#include "benchgen/RandomAutomata.h"

#include <gtest/gtest.h>

using namespace termcheck;

namespace {

/// One seeded (A, B) product-differential instance: A is a random
/// nondeterministic BA, B a prepared SDBA complemented on the fly through
/// NCSB-Lazy.
struct ProductInstance {
  Buchi A;
  Buchi B;
  Sdba Prepared;
};

std::vector<ProductInstance> productCorpus(size_t Count, uint64_t Seed) {
  std::vector<ProductInstance> Out;
  Rng R(Seed);
  while (Out.size() < Count) {
    RandomAutomatonSpec ASpec;
    ASpec.NumStates = 4 + static_cast<uint32_t>(R.below(6));
    ASpec.Density = 1.1 + 0.1 * static_cast<double>(R.below(6));
    ASpec.AcceptPercent = 20 + static_cast<uint32_t>(R.below(40));
    Buchi A = randomBa(R, ASpec);
    Buchi B = randomSdba(R, 2 + static_cast<uint32_t>(R.below(3)),
                         2 + static_cast<uint32_t>(R.below(3)), 2);
    std::optional<Sdba> S = prepareSdba(B);
    if (!S)
      continue;
    Out.push_back({std::move(A), std::move(B), std::move(*S)});
  }
  return Out;
}

/// The oracle's answer for L(A) \ L(B): emptiness of A times the eagerly
/// materialized NCSB-Lazy complement of B.
bool oracleDifferenceEmpty(const ProductInstance &Inst) {
  NcsbOracle O(Inst.Prepared, NcsbVariant::Lazy);
  return naiveIsEmpty(intersect(Inst.A, O.materialize()));
}

DifferenceResult runDifference(const ProductInstance &Inst,
                               bool EmptinessOnly, bool UseSubsumption) {
  NcsbOracle O(Inst.Prepared, NcsbVariant::Lazy);
  DifferenceOptions DO;
  DO.EmptinessOnly = EmptinessOnly;
  DO.UseSubsumption = UseSubsumption;
  return difference(Inst.A, O, DO);
}

/// isEmpty and findAcceptingLasso against the oracle on an explicit GBA.
/// \returns the oracle's answer.
bool expectAgreesWithOracle(const Buchi &A, const std::string &What) {
  const bool Ref = naiveIsEmpty(A);
  EXPECT_EQ(isEmpty(A), Ref) << What << "\n" << A.str();
  std::optional<LassoWord> W = findAcceptingLasso(A);
  EXPECT_EQ(W.has_value(), !Ref) << What << "\n" << A.str();
  if (W) {
    EXPECT_TRUE(acceptsLasso(A, *W)) << What << ": rejected lasso "
                                     << W->str() << "\n" << A.str();
  }
  return Ref;
}

} // namespace

TEST(EmptinessEquivalence, ProductDifferentialsMatchOracle) {
  std::vector<ProductInstance> Corpus = productCorpus(220, 0xD1FF0001);
  size_t Nonempty = 0;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    const bool Ref = oracleDifferenceEmpty(Corpus[I]);
    if (!Ref)
      ++Nonempty;
    for (bool Sub : {true, false}) {
      const std::string Where = "instance " + std::to_string(I) +
                                (Sub ? " (subsumption)" : " (exact emp)");
      DifferenceResult Only = runDifference(Corpus[I], true, Sub);
      ASSERT_FALSE(Only.Aborted) << Where;
      EXPECT_EQ(Only.IsEmpty, Ref) << Where << ", emptiness-only";
      EXPECT_EQ(Only.D.numStates(), 0u) << Where << ", emptiness-only";

      DifferenceResult Full = runDifference(Corpus[I], false, Sub);
      ASSERT_FALSE(Full.Aborted) << Where;
      EXPECT_EQ(Full.IsEmpty, Ref) << Where << ", materialized";
      EXPECT_EQ(Full.D.numStates() == 0, Full.IsEmpty) << Where;
      if (std::optional<LassoWord> W = findAcceptingLasso(Full.D)) {
        EXPECT_TRUE(acceptsLasso(Corpus[I].A, *W))
            << Where << ": difference word not in L(A)";
        EXPECT_FALSE(acceptsLasso(Corpus[I].B, *W))
            << Where << ": difference word in L(B)";
      }
    }
  }
  // The sweep must exercise both outcomes, or the agreement checks above
  // are vacuous.
  EXPECT_GT(Nonempty, 20u) << "corpus skewed all-empty";
  EXPECT_LT(Nonempty, Corpus.size()) << "corpus skewed all-nonempty";
}

TEST(EmptinessEquivalence, InclusionMatchesOracle) {
  std::vector<ProductInstance> Corpus = productCorpus(220, 0xD1FF0001);
  for (size_t I = 0; I < Corpus.size(); ++I) {
    std::optional<bool> Included = isIncludedIn(Corpus[I].A, Corpus[I].B);
    ASSERT_TRUE(Included.has_value()) << "instance " << I;
    EXPECT_EQ(*Included, oracleDifferenceEmpty(Corpus[I]))
        << "instance " << I;
  }
}

TEST(EmptinessEquivalence, HandBuiltShapesMatchOracle) {
  Buchi NoStates(1, 1);
  EXPECT_TRUE(expectAgreesWithOracle(NoStates, "no states"));

  Buchi SelfLoop(1, 1);
  State S = SelfLoop.addState();
  SelfLoop.addInitial(S);
  SelfLoop.setAccepting(S);
  SelfLoop.addTransition(S, 0, S);
  EXPECT_FALSE(expectAgreesWithOracle(SelfLoop, "accepting self-loop"));

  Buchi PlainCycle(1, 1);
  PlainCycle.addStates(2);
  PlainCycle.addInitial(0);
  PlainCycle.addTransition(0, 0, 1);
  PlainCycle.addTransition(1, 0, 0);
  EXPECT_TRUE(expectAgreesWithOracle(PlainCycle, "non-accepting cycle"));

  // Accepting state reachable but on no cycle.
  Buchi OffCycle(1, 1);
  OffCycle.addStates(3);
  OffCycle.addInitial(0);
  OffCycle.setAccepting(1);
  OffCycle.addTransition(0, 0, 1);
  OffCycle.addTransition(1, 0, 2);
  OffCycle.addTransition(2, 0, 2);
  EXPECT_TRUE(expectAgreesWithOracle(OffCycle, "accepting state off cycle"));

  // The accepting cycle closes into the DFS root, above the accepting
  // state that completes it.
  Buchi ClosesAbove(1, 1);
  ClosesAbove.addStates(3);
  ClosesAbove.addInitial(0);
  ClosesAbove.setAccepting(2);
  ClosesAbove.addTransition(0, 0, 1);
  ClosesAbove.addTransition(1, 0, 2);
  ClosesAbove.addTransition(2, 0, 0);
  EXPECT_FALSE(expectAgreesWithOracle(ClosesAbove, "cycle closes above"));
}

TEST(EmptinessEquivalence, RandomBasMatchOracle) {
  Rng R(909);
  size_t Nonempty = 0;
  for (int Iter = 0; Iter < 200; ++Iter) {
    RandomAutomatonSpec Spec;
    Spec.NumStates = 2 + static_cast<uint32_t>(R.below(10));
    Spec.NumSymbols = 1 + static_cast<uint32_t>(R.below(3));
    Spec.AcceptPercent = 20;
    Buchi A = randomBa(R, Spec);
    if (!expectAgreesWithOracle(A, "random BA " + std::to_string(Iter)))
      ++Nonempty;
  }
  EXPECT_GT(Nonempty, 10u);
  EXPECT_LT(Nonempty, 190u);
}

TEST(EmptinessEquivalence, GeneralizedAndDegeneralizedMatchOracle) {
  Rng R(911);
  for (int Iter = 0; Iter < 40; ++Iter) {
    // Random 2-condition GBA, checked before and after degeneralization.
    Buchi G(2, 2);
    uint32_t N = 3 + static_cast<uint32_t>(R.below(4));
    G.addStates(N);
    G.addInitial(0);
    for (State S = 0; S < N; ++S) {
      if (R.chance(1, 3))
        G.setAccepting(S, 0);
      if (R.chance(1, 3))
        G.setAccepting(S, 1);
      for (Symbol Sym = 0; Sym < 2; ++Sym)
        G.addTransition(S, Sym, static_cast<State>(R.below(N)));
    }
    const std::string What = "GBA " + std::to_string(Iter);
    bool Ref = expectAgreesWithOracle(G, What);
    EXPECT_EQ(expectAgreesWithOracle(degeneralize(G), What + " degeneralized"),
              Ref);
  }
}
