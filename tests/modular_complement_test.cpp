//===- tests/modular_complement_test.cpp - Modular complement gate --------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The gate for the modular complement (DESIGN.md section 13). On seeded
/// SDBAs, seeded general BAs and the modules the analyzer certifies on the
/// benchmarks/ corpus, every complement that builds must be exact: the
/// product with the input is empty under the naive oracle of
/// NaiveEmptiness.h, and every sampled lasso lies in exactly one of the
/// two languages. Hand-built cases pin the inert-weak collapse, acceptance
/// narrowing, and the refusal on a general accepting SCC; a regression run
/// pins the verdict that refusal buys on moded_loop.
///
//===----------------------------------------------------------------------===//

#include "automata/ModularComplement.h"

#include "NaiveEmptiness.h"
#include "automata/DbaComplement.h"
#include "automata/FiniteTraceComplement.h"
#include "automata/Ops.h"
#include "automata/Scc.h"
#include "benchgen/ProgramFamilies.h"
#include "benchgen/RandomAutomata.h"
#include "program/Parser.h"
#include "termination/Analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace termcheck;

namespace {

#ifndef TERMCHECK_CORPUS_DIR
#error "build must define TERMCHECK_CORPUS_DIR"
#endif

/// Which construction complements the cut.
enum class Kind { FiniteTrace, Dba, Ncsb };

Kind kindOf(const ModularComplement &C) {
  if (dynamic_cast<const FiniteTraceComplementOracle *>(C.Oracle.get()))
    return Kind::FiniteTrace;
  if (dynamic_cast<const DbaComplementOracle *>(C.Oracle.get()))
    return Kind::Dba;
  EXPECT_TRUE(C.Prepared.has_value());
  return Kind::Ncsb;
}

/// Checks that \p C complements \p A exactly: L(A) and L(C) are disjoint
/// (naive emptiness of the product), and every sampled lasso -- plus each
/// side's own accepting lasso -- lies in exactly one of them.
void expectExactComplement(const Buchi &A, ModularComplement &C, Rng &R,
                           int Samples = 20) {
  const Buchi M = C.Oracle->materialize();
  EXPECT_TRUE(naiveIsEmpty(intersect(A, M)))
      << "complement intersects the input\n" << A.str();
  std::vector<LassoWord> Words;
  for (int I = 0; I < Samples; ++I)
    Words.push_back(randomLasso(R, A.numSymbols(), 3, 3));
  if (auto W = findAcceptingLasso(A))
    Words.push_back(*W);
  if (auto W = findAcceptingLasso(M))
    Words.push_back(*W);
  for (const LassoWord &W : Words) {
    bool InA = acceptsLasso(A, W);
    EXPECT_NE(InA, acceptsLasso(M, W))
        << "word " << W.str()
        << (InA ? " accepted by both" : " accepted by neither") << "\n"
        << A.str();
  }
}

/// Builds the complement of \p A, expects construction \p K, and checks
/// that it is exact.
std::unique_ptr<ModularComplement> expectBuiltAs(const Buchi &A, Kind K) {
  auto C = buildModularComplement(A);
  EXPECT_TRUE(C) << A.str();
  if (C) {
    EXPECT_EQ(kindOf(*C), K) << A.str();
    Rng R(6010);
    expectExactComplement(A, *C, R);
  }
  return C;
}

/// Two symbols, \p N states, state 0 initial.
Buchi twoSymbolBa(uint32_t N) {
  Buchi A(2, 1);
  A.addStates(N);
  A.addInitial(0);
  return A;
}

TEST(ModularComplement, SeededSdbasComplementExactly) {
  // The cut of an SDBA is an SDBA, so the build never fails here; every
  // one of the three constructions must turn up across the corpus.
  Rng R(6001);
  int Seen[3] = {0, 0, 0};
  for (int Iter = 0; Iter < 120; ++Iter) {
    uint32_t Q1 = 1 + static_cast<uint32_t>(R.below(3));
    uint32_t Q2 = 1 + static_cast<uint32_t>(R.below(3));
    uint32_t Sym = 1 + static_cast<uint32_t>(R.below(2));
    Buchi A = randomSdba(R, Q1, Q2, Sym);
    auto C = buildModularComplement(A, Iter % 2 == 0 ? NcsbVariant::Lazy
                                                     : NcsbVariant::Original);
    ASSERT_TRUE(C) << "the cut of an SDBA must build\n" << A.str();
    ++Seen[static_cast<int>(kindOf(*C))];
    expectExactComplement(A, *C, R);
  }
  EXPECT_GT(Seen[static_cast<int>(Kind::FiniteTrace)], 0);
  EXPECT_GT(Seen[static_cast<int>(Kind::Dba)], 0);
  EXPECT_GT(Seen[static_cast<int>(Kind::Ncsb)], 0);
}

TEST(ModularComplement, SeededGeneralBasComplementExactlyWhenBuilt) {
  // Random nondeterministic BAs: some cuts fit no construction (nullptr);
  // every one that builds must be exact.
  Rng R(6002);
  int Built = 0, Refused = 0;
  for (int Iter = 0; Iter < 150; ++Iter) {
    RandomAutomatonSpec Spec;
    Spec.NumStates = 2 + static_cast<uint32_t>(R.below(5));
    Spec.NumSymbols = 1 + static_cast<uint32_t>(R.below(2));
    Buchi A = randomBa(R, Spec);
    auto C = buildModularComplement(A);
    if (!C) {
      ++Refused;
      continue;
    }
    ++Built;
    expectExactComplement(A, *C, R);
  }
  EXPECT_GT(Built, 30);
  EXPECT_GT(Refused, 0);
}

/// Every module the analyzer certifies on benchmarks/ under the Modular
/// strategy, which is exactly the input the builder sees in a run.
std::vector<Buchi> harvestCorpusModules() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(TERMCHECK_CORPUS_DIR))
    if (Entry.path().extension() == ".while")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  std::vector<Buchi> Out;
  for (const auto &Path : Files) {
    std::ifstream In(Path);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    ParseResult P = parseProgram(Buf.str());
    if (!P.ok()) {
      ADD_FAILURE() << Path << ": " << P.Error;
      continue;
    }
    AnalyzerOptions Opts;
    Opts.Complement = ComplementStrategy::Modular;
    Opts.TimeoutSeconds = 10;
    AnalysisResult Res = TerminationAnalyzer(*P.Prog, Opts).run();
    for (const CertifiedModule &M : Res.Modules)
      Out.push_back(M.A);
  }
  return Out;
}

TEST(ModularComplement, CorpusModulesComplementExactly) {
  std::vector<Buchi> Modules = harvestCorpusModules();
  ASSERT_GE(Modules.size(), 20u) << "corpus unexpectedly small";
  Rng R(6003);
  size_t Checked = 0;
  for (const Buchi &A : Modules) {
    auto C = buildModularComplement(A);
    ASSERT_TRUE(C) << "every certified module has a modular complement\n"
                   << A.str();
    expectExactComplement(A, *C, R);
    ++Checked;
  }
  EXPECT_EQ(Checked, Modules.size());
}

//===----------------------------------------------------------------------===//
// The inert-weak collapse
//===----------------------------------------------------------------------===//

TEST(ModularComplement, InertWeakSelfLoopCollapses) {
  // One accepting state, complete and closed: the universal language,
  // whose finite-trace complement has no initial state at all.
  Buchi A = twoSymbolBa(1);
  A.setAccepting(0);
  A.addTransition(0, 0, 0);
  A.addTransition(0, 1, 0);
  auto C = expectBuiltAs(A, Kind::FiniteTrace);
  ASSERT_TRUE(C);
  EXPECT_TRUE(C->Oracle->initialStates().empty());
}

TEST(ModularComplement, InertWeakToleratesInternalNondeterminism) {
  // Closed + complete + every state accepting: inherent weakness does not
  // care about determinism, and the whole SCC becomes one universal state.
  Buchi A = twoSymbolBa(2);
  for (State S = 0; S < 2; ++S) {
    A.setAccepting(S);
    for (Symbol Sym = 0; Sym < 2; ++Sym) {
      A.addTransition(S, Sym, 1 - S);
      A.addTransition(S, Sym, S); // second successor: nondeterministic
    }
  }
  auto C = expectBuiltAs(A, Kind::FiniteTrace);
  ASSERT_TRUE(C);
  EXPECT_EQ(C->Cut.numStates(), 1u);
}

TEST(ModularComplement, InertWeakSccsBehindNondeterminismCollapse) {
  // Two inert-weak SCCs behind a nondeterministic prefix (state 0 forks on
  // symbol 0): both collapse into the one universal state, numbered first,
  // and the cheap finite-trace complement applies.
  Buchi A = twoSymbolBa(4); // 0 prefix, 1 and {2, 3} inert-weak SCCs
  A.addTransition(0, 0, 0);
  A.addTransition(0, 0, 1);
  A.addTransition(0, 1, 2);
  A.setAccepting(1);
  A.addTransition(1, 0, 1);
  A.addTransition(1, 1, 1);
  A.setAccepting(2);
  A.addTransition(2, 0, 3);
  A.addTransition(2, 1, 3);
  A.addTransition(3, 0, 2); // 3 is non-accepting, but on no cycle avoiding 2
  A.addTransition(3, 1, 2);
  auto C = expectBuiltAs(A, Kind::FiniteTrace);
  ASSERT_TRUE(C);
  EXPECT_EQ(C->Cut.numStates(), 2u); // universal + the prefix state
  EXPECT_NE(C->Cut.acceptMask(0), 0u) << "universal state comes first";
  EXPECT_EQ(C->Cut.acceptMask(1), 0u);
}

TEST(ModularComplement, IncompleteWeakSccIsNotInert) {
  // Accepting self-loop on symbol 0 only: a run can die on symbol 1, so
  // the SCC is not Pref . Sigma^omega; the completed cut is a DBA.
  Buchi A = twoSymbolBa(1);
  A.setAccepting(0);
  A.addTransition(0, 0, 0);
  expectBuiltAs(A, Kind::Dba);
}

TEST(ModularComplement, OpenWeakSccIsNotInert) {
  // State 0 has a successor on every symbol, but symbol 1 leaves its SCC
  // for a rejecting sink: L(A) = 0^omega, not Sigma^omega. The cut drops
  // the sink and its completion is a DBA.
  Buchi A = twoSymbolBa(2);
  A.setAccepting(0);
  A.addTransition(0, 0, 0);
  A.addTransition(0, 1, 1);
  A.addTransition(1, 0, 1);
  A.addTransition(1, 1, 1);
  expectBuiltAs(A, Kind::Dba);
}

TEST(ModularComplement, NonAcceptingCycleBreaksInertness) {
  // Closed, complete, deterministic two-state SCC where only state 0
  // accepts and state 1 has a non-accepting self-loop.
  Buchi A = twoSymbolBa(2);
  A.setAccepting(0);
  for (State S = 0; S < 2; ++S) {
    A.addTransition(S, 0, 1 - S);
    A.addTransition(S, 1, S);
  }
  expectBuiltAs(A, Kind::Dba);
}

TEST(ModularComplement, OneNonInertSccBlocksTheCollapse) {
  // An inert-weak SCC next to a non-inert one: no collapse, and the cut
  // (still semideterministic) goes to NCSB.
  Buchi A = twoSymbolBa(3); // 0 prefix, 1 inert-weak, 2 accepting on 0 only
  A.addTransition(0, 0, 1);
  A.addTransition(0, 0, 2);
  A.setAccepting(1);
  A.addTransition(1, 0, 1);
  A.addTransition(1, 1, 1);
  A.setAccepting(2);
  A.addTransition(2, 0, 2);
  expectBuiltAs(A, Kind::Ncsb);
}

//===----------------------------------------------------------------------===//
// The cut and its refusals
//===----------------------------------------------------------------------===//

TEST(ModularComplement, CutNarrowsAcceptanceAndDropsTheTail) {
  // State 0 accepts but lies on no cycle, so no run is trapped there; its
  // acceptance is dropped. The nondeterministic tail {2, 3} reaches no
  // accepting SCC and is cut away. A itself is no SDBA (the tail is
  // reachable from accepting state 0), but the cut is a DBA.
  Buchi A = twoSymbolBa(4);
  A.setAccepting(0);
  A.addTransition(0, 0, 1);
  A.addTransition(0, 1, 2);
  A.setAccepting(1);
  A.addTransition(1, 0, 1);
  A.addTransition(2, 0, 2);
  A.addTransition(2, 0, 3); // the nondeterminism
  A.addTransition(3, 0, 3);
  A.addTransition(3, 1, 3);
  ASSERT_FALSE(prepareSdba(A).has_value());
  auto C = expectBuiltAs(A, Kind::Dba);
  ASSERT_TRUE(C);
  // Original id order survives the cut; completion appends one sink.
  ASSERT_EQ(C->Cut.numStates(), 3u);
  EXPECT_EQ(C->Cut.acceptMask(0), 0u) << "transient acceptance narrowed";
  EXPECT_NE(C->Cut.acceptMask(1), 0u);
  EXPECT_EQ(C->Cut.acceptMask(2), 0u);
}

TEST(ModularComplement, EmptyLanguageComplementsToUniversal) {
  // No accepting SCC: the cut is empty and the complement accepts all.
  Buchi A = twoSymbolBa(3);
  A.setAccepting(1); // accepting but trivial: never traps a run
  A.addTransition(0, 0, 1);
  A.addTransition(1, 0, 2);
  A.addTransition(2, 0, 2); // the only cycle, non-accepting
  A.addTransition(2, 1, 2);
  auto C = expectBuiltAs(A, Kind::FiniteTrace);
  ASSERT_TRUE(C);
  const Buchi M = C->Oracle->materialize();
  Rng R(6017);
  for (int W = 0; W < 20; ++W)
    EXPECT_TRUE(acceptsLasso(M, randomLasso(R, 2, 3, 3)));
}

TEST(ModularComplement, RefusesGeneralAcceptingScc) {
  // Internal nondeterminism inside an accepting SCC that is not inert-weak
  // (incomplete, with a non-accepting cycle): no DBA, no SDBA. The builder
  // declines instead of reaching for the rank construction, whatever the
  // size, and subtract() falls back to the monolithic chain.
  Buchi A = twoSymbolBa(2);
  A.setAccepting(0);
  A.addTransition(0, 0, 0);
  A.addTransition(0, 0, 1); // internal nondeterminism on symbol 0
  A.addTransition(1, 0, 0);
  A.addTransition(1, 1, 1); // non-accepting cycle
  EXPECT_EQ(buildModularComplement(A), nullptr);
}

TEST(ModularComplement, RefusesMultiConditionInput) {
  Buchi A(1, 2);
  A.addStates(1);
  A.addInitial(0);
  A.setAccepting(0, 0);
  A.setAccepting(0, 1);
  A.addTransition(0, 0, 0);
  EXPECT_EQ(buildModularComplement(A), nullptr);
}

//===----------------------------------------------------------------------===//
// End to end
//===----------------------------------------------------------------------===//

TEST(ModularComplement, ModedLoopTerminatesWithoutStageFourModules) {
  // moded_loop's stage-4 modules hold a small general accepting SCC. The
  // rank construction used to complement them, which blew up the product
  // and timed the run out; refused, they give way to cheaper modules and
  // the run ends TERMINATING.
  for (const BenchProgram &B : benchmarkSuite()) {
    if (B.Name != "moded_loop")
      continue;
    ParseResult P = parseProgram(B.Source);
    ASSERT_TRUE(P.ok()) << P.Error;
    AnalyzerOptions Opts;
    Opts.Complement = ComplementStrategy::Modular;
    Opts.TimeoutSeconds = 5;
    AnalysisResult R = TerminationAnalyzer(*P.Prog, Opts).run();
    EXPECT_EQ(R.V, Verdict::Terminating);
    EXPECT_EQ(R.Stats.get("modules.nondeterministic"), 0);
    return;
  }
  FAIL() << "benchmarkSuite() has no moded_loop";
}

} // namespace
