//===- tests/ncsb_equivalence_test.cpp - Bitset NCSB vs set reference -----===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Differential gate for the bitset NCSB oracle (automata/Ncsb.h) against
/// the sorted-set construction it replaced (NcsbReference.h). For both
/// variants the materialized complements must agree state for state: the
/// same states, initial and accepting states, transitions in the same
/// order, and the same decoded (N, C, S, B) behind every intern id. The
/// Section 6 antichain must prune identically: a difference against the
/// universal automaton explores, discovers and prunes the same counts.
///
/// Inputs: seeded SDBAs on the termbench `ncsb` shape grid, the SDBAs the
/// analyzer certifies on the small benchmark suite, a family whose bitsets
/// span 2-4 words, and a multi-word SDBA whose free set exceeds the
/// 24-state enumeration limit.
///
//===----------------------------------------------------------------------===//

#include "NcsbReference.h"

#include "automata/Difference.h"
#include "automata/Ncsb.h"
#include "benchgen/ProgramFamilies.h"
#include "benchgen/RandomAutomata.h"
#include "benchgen/SdbaHarvest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

using namespace termcheck;

namespace {

constexpr NcsbVariant Variants[] = {NcsbVariant::Original, NcsbVariant::Lazy};

const char *variantName(NcsbVariant V) {
  return V == NcsbVariant::Original ? "original" : "lazy";
}

/// Universal automaton over \p NumSymbols letters (accepts Sigma^omega).
Buchi universal(uint32_t NumSymbols) {
  Buchi U(NumSymbols, 1);
  State S = U.addState();
  U.addInitial(S);
  U.setAccepting(S);
  for (Symbol Sym = 0; Sym < NumSymbols; ++Sym)
    U.addTransition(S, Sym, S);
  return U;
}

/// \returns true when the NCSB-Original complement of \p In stays within
/// \p Cap live states (the termbench corpus probe).
bool complementFits(const Sdba &In, size_t Cap) {
  Buchi U = universal(In.A.numSymbols());
  NcsbOracle Probe(In, NcsbVariant::Original);
  DifferenceOptions Opts;
  Opts.UseSubsumption = false;
  Opts.MaxProductStates = Cap;
  return !difference(U, Probe, Opts).Aborted;
}

/// Both oracles' materializations of \p In under \p V, compared id for id.
void expectSameComplement(const Sdba &In, NcsbVariant V,
                          const std::string &Name) {
  SCOPED_TRACE(Name + " " + variantName(V));
  NcsbOracle New(In, V);
  NcsbReferenceOracle Ref(In, V);
  Buchi A = New.materialize();
  Buchi B = Ref.materialize();
  ASSERT_EQ(A.numStates(), B.numStates());
  ASSERT_EQ(New.numStatesDiscovered(), Ref.numStatesDiscovered());
  EXPECT_EQ(A.initials(), B.initials());
  for (State Q = 0; Q < A.numStates(); ++Q) {
    EXPECT_EQ(A.acceptMask(Q), B.acceptMask(Q)) << "state " << Q;
    EXPECT_TRUE(std::ranges::equal(A.arcsFrom(Q), B.arcsFrom(Q)))
        << "state " << Q;
  }
  for (State Id = 0; Id < New.numStatesDiscovered(); ++Id) {
    const NcsbMacroState &M = New.macroState(Id);
    const NcsbSetMacroState &R = Ref.macroState(Id);
    EXPECT_EQ(M.N(), R.N) << "id " << Id;
    EXPECT_EQ(M.C(), R.C) << "id " << Id;
    EXPECT_EQ(M.S(), R.S) << "id " << Id;
    EXPECT_EQ(M.B(), R.B) << "id " << Id;
  }
  // The subsumption relation itself, on a prefix of the ids.
  State Probe = static_cast<State>(
      std::min<size_t>(New.numStatesDiscovered(), 40));
  for (State P = 0; P < Probe; ++P)
    for (State Q = 0; Q < Probe; ++Q)
      EXPECT_EQ(New.subsumedBy(P, Q), Ref.subsumedBy(P, Q))
          << "ids " << P << ", " << Q;
}

/// Both oracles behind a subsumption-pruned difference with the universal
/// automaton: the search must explore, discover and prune the same counts.
void expectSameDifference(const Sdba &In, NcsbVariant V,
                          const std::string &Name) {
  SCOPED_TRACE(Name + " " + variantName(V) + " difference");
  Buchi U = universal(In.A.numSymbols());
  NcsbOracle New(In, V);
  NcsbReferenceOracle Ref(In, V);
  DifferenceOptions Opts;
  Opts.UseSubsumption = true;
  DifferenceResult A = difference(U, New, Opts);
  DifferenceResult B = difference(U, Ref, Opts);
  ASSERT_FALSE(A.Aborted);
  ASSERT_FALSE(B.Aborted);
  EXPECT_EQ(A.ProductStatesExplored, B.ProductStatesExplored);
  EXPECT_EQ(A.ComplementStatesDiscovered, B.ComplementStatesDiscovered);
  EXPECT_EQ(A.SubsumptionPruned, B.SubsumptionPruned);
  EXPECT_EQ(A.IsEmpty, B.IsEmpty);
  EXPECT_EQ(A.D.numStates(), B.D.numStates());
  EXPECT_EQ(A.D.numTransitions(), B.D.numTransitions());
}

void expectEquivalent(const Sdba &In, const std::string &Name) {
  for (NcsbVariant V : Variants) {
    expectSameComplement(In, V, Name);
    expectSameDifference(In, V, Name);
  }
}

TEST(NcsbEquivalence, SeededShapeGrid) {
  // The termbench ncsb grid: Q1 1-6, Q2 3-9, 2-4 letters, cycled until 300
  // SDBAs with affordable complements have been compared.
  Rng R(20261017);
  size_t Compared = 0, Draws = 0;
  while (Compared < 300 && Draws < 3000)
    for (uint32_t Q1 = 1; Q1 <= 6 && Compared < 300; ++Q1)
      for (uint32_t Q2 = 3; Q2 <= 9 && Compared < 300; ++Q2)
        for (uint32_t Sym = 2; Sym <= 4 && Compared < 300; ++Sym) {
          ++Draws;
          std::optional<Sdba> In = prepareSdba(randomSdba(R, Q1, Q2, Sym));
          ASSERT_TRUE(In.has_value());
          if (!complementFits(*In, 4096))
            continue;
          expectEquivalent(*In, "grid draw " + std::to_string(Draws));
          ++Compared;
        }
  EXPECT_EQ(Compared, 300u);
}

TEST(NcsbEquivalence, HarvestedSdbas) {
  std::vector<Buchi> Harvested = harvestSdbas(smallBenchmarkSuite(), 1.0);
  ASSERT_FALSE(Harvested.empty());
  for (size_t I = 0; I < Harvested.size(); ++I) {
    std::optional<Sdba> In = prepareSdba(Harvested[I]);
    ASSERT_TRUE(In.has_value());
    expectEquivalent(*In, "harvest " + std::to_string(I));
  }
}

TEST(NcsbEquivalence, MultiWordBitsets) {
  // Grid-shaped SDBAs scattered over 65-200 state ids: every bitset spans
  // 2-4 words, and the sets of one macro-state, its free states and the
  // split counter's selection all straddle word boundaries.
  Rng R(6502);
  size_t Compared = 0;
  for (int Iter = 0; Iter < 400 && Compared < 60; ++Iter) {
    uint32_t Q1 = 1 + static_cast<uint32_t>(R.below(6));
    uint32_t Q2 = 3 + static_cast<uint32_t>(R.below(7));
    uint32_t Sym = 2 + static_cast<uint32_t>(R.below(3));
    uint32_t Size = 65 + static_cast<uint32_t>(R.below(136));
    std::optional<Sdba> In =
        prepareSdba(scatterStates(R, randomSdba(R, Q1, Q2, Sym), Size));
    ASSERT_TRUE(In.has_value());
    uint32_t Words = (In->A.numStates() + 63) / 64;
    ASSERT_GE(Words, 2u);
    ASSERT_LE(Words, 4u);
    if (!complementFits(*In, 4096))
      continue;
    expectEquivalent(*In, "multi-word " + std::to_string(Iter));
    ++Compared;
  }
  EXPECT_EQ(Compared, 60u);
}

TEST(NcsbEquivalence, WideFreeSetIsResourceExhausted) {
  // Initial Q1 state q reads letter 0 into 30 accepting Q2 states a_i, each
  // of which steps to its own rejecting r_i. One step later the r_i are
  // all free: 2^30 splits. The ids interleave so the free states span
  // both words of the 93-state SDBA.
  constexpr uint32_t Pairs = 30;
  Buchi A(2, 1);
  A.addStates(1 + 3 * Pairs); // every third state stays unused
  A.addInitial(0);
  for (uint32_t I = 0; I < Pairs; ++I) {
    State Acc = 1 + 3 * I, Rej = 2 + 3 * I;
    A.setAccepting(Acc);
    A.addTransition(0, 0, Acc);
    A.addTransition(Acc, 0, Rej);
    A.addTransition(Rej, 0, Rej);
  }
  std::optional<Sdba> In = prepareSdba(A);
  ASSERT_TRUE(In.has_value());
  ASSERT_GE(In->A.numStates(), 65u);
  auto ExpectExhausted = [](ComplementOracle &O) {
    try {
      O.materialize();
      ADD_FAILURE() << "no ResourceExhausted";
    } catch (const EngineError &E) {
      EXPECT_EQ(E.kind(), ErrorKind::ResourceExhausted);
    }
  };
  for (NcsbVariant V : Variants) {
    SCOPED_TRACE(variantName(V));
    NcsbOracle New(*In, V);
    NcsbReferenceOracle Ref(*In, V);
    ExpectExhausted(New);
    ExpectExhausted(Ref);
  }
}

} // namespace
