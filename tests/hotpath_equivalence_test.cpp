//===- tests/hotpath_equivalence_test.cpp - Hot-path data structures ------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Differential gate for the hot-path data-structure overhaul: the lazy CSR
/// transition index and the arena-backed intern tables must be pure
/// representation changes. Each structure is checked against a naive
/// reference implementation (first-occurrence-deduped adjacency lists, a
/// std::map-based intern table), the complement constructions they carry
/// are re-run for construction determinism and cross-engine language
/// agreement over a seeded SDBA corpus, the analyzer's verdicts are pinned
/// to benchmarks/EXPECTATIONS.txt, and deterministic run reports must stay
/// byte-identical across runs while carrying the new perf.* counters.
///
//===----------------------------------------------------------------------===//

#include "automata/Interner.h"
#include "automata/Ncsb.h"
#include "automata/Ops.h"
#include "automata/RankComplement.h"
#include "automata/Scc.h"
#include "benchgen/RandomAutomata.h"
#include "program/Parser.h"
#include "support/Json.h"
#include "termination/Analyzer.h"
#include "termination/RunReport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>

using namespace termcheck;

namespace {

#ifndef TERMCHECK_CORPUS_DIR
#error "build must define TERMCHECK_CORPUS_DIR"
#endif

//===----------------------------------------------------------------------===//
// CSR transition index vs naive reference adjacency
//===----------------------------------------------------------------------===//

/// Reference semantics of the (state, symbol) successor query: the targets
/// in first-insertion order with duplicates dropped, maintained naively.
struct ReferenceAdjacency {
  uint32_t Symbols;
  std::vector<std::vector<Buchi::Arc>> Arcs; // deduped, insertion order

  explicit ReferenceAdjacency(uint32_t Symbols) : Symbols(Symbols) {}

  void addState() { Arcs.emplace_back(); }

  void addTransition(State From, Symbol Sym, State To) {
    for (const Buchi::Arc &A : Arcs[From])
      if (A.Sym == Sym && A.To == To)
        return;
    Arcs[From].push_back({Sym, To});
  }

  std::vector<State> successors(State S, Symbol Sym) const {
    std::vector<State> Out;
    for (const Buchi::Arc &A : Arcs[S])
      if (A.Sym == Sym)
        Out.push_back(A.To);
    return Out;
  }
};

void expectSameSuccessors(const Buchi &A, const ReferenceAdjacency &Ref) {
  for (State S = 0; S < A.numStates(); ++S) {
    EXPECT_TRUE(std::ranges::equal(A.arcsFrom(S), Ref.Arcs[S]))
        << "arc list of q" << S;
    for (Symbol Sym = 0; Sym < A.numSymbols(); ++Sym) {
      std::vector<State> Want = Ref.successors(S, Sym);
      EXPECT_EQ(A.successors(S, Sym), Want);

      auto [B, E] = A.successorsSpan(S, Sym);
      EXPECT_EQ(std::vector<State>(B, E), Want);

      std::vector<State> ViaCallback;
      A.forEachSuccessor(S, Sym, [&](State To) { ViaCallback.push_back(To); });
      EXPECT_EQ(ViaCallback, Want);

      std::vector<State> ViaInto;
      A.successorsInto(S, Sym, ViaInto);
      EXPECT_EQ(ViaInto, Want);
    }
  }
}

TEST(CsrIndex, MatchesNaiveReferenceWithDuplicatesAndInterleavedQueries) {
  Rng R(0xC5A0001);
  for (int Iter = 0; Iter < 40; ++Iter) {
    uint32_t N = 2 + static_cast<uint32_t>(R.below(12));
    uint32_t Symbols = 1 + static_cast<uint32_t>(R.below(3));
    Buchi A(Symbols);
    ReferenceAdjacency Ref(Symbols);
    for (uint32_t I = 0; I < N; ++I) {
      A.addState();
      Ref.addState();
    }
    // Insert with deliberate duplicates; query mid-build so the index is
    // invalidated and rebuilt and the pending arcs are compacted several
    // times per automaton.
    size_t Inserts = 4 + R.below(6 * N);
    for (size_t I = 0; I < Inserts; ++I) {
      State From = static_cast<State>(R.below(N));
      Symbol Sym = static_cast<Symbol>(R.below(Symbols));
      State To = static_cast<State>(R.below(N));
      A.addTransition(From, Sym, To);
      Ref.addTransition(From, Sym, To);
      if (R.below(4) == 0) // duplicate the arc we just added
        A.addTransition(From, Sym, To);
      if (R.below(5) == 0) {
        // Re-add an arc that may already sit in a compacted row: its first
        // occurrence must keep its place.
        State Old = static_cast<State>(R.below(N));
        if (!Ref.Arcs[Old].empty()) {
          const Buchi::Arc &Again =
              Ref.Arcs[Old][R.below(Ref.Arcs[Old].size())];
          A.addTransition(Old, Again.Sym, Again.To);
        }
      }
      if (R.below(6) == 0) {
        // A state added after the last compaction, with no arcs yet.
        A.addState();
        Ref.addState();
        ++N;
        EXPECT_TRUE(A.arcsFrom(N - 1).empty());
      }
      if (R.below(3) == 0) {
        // One state's row while other states still have pending arcs.
        State S = static_cast<State>(R.below(N));
        EXPECT_TRUE(std::ranges::equal(A.arcsFrom(S), Ref.Arcs[S]))
            << "arc list of q" << S;
      }
      if (R.below(3) == 0)
        expectSameSuccessors(A, Ref);
    }
    expectSameSuccessors(A, Ref);
    EXPECT_EQ(A.numTransitions(), [&] {
      size_t T = 0;
      for (const auto &Arcs : Ref.Arcs)
        T += Arcs.size();
      return T;
    }());
  }
}

TEST(CsrIndex, DedupKeepsFirstOccurrenceOrder) {
  Buchi A(2);
  A.addStates(3);
  A.addTransition(0, 1, 2);
  A.addTransition(0, 0, 1);
  A.addTransition(0, 1, 2); // duplicate of the first arc
  A.addTransition(0, 1, 0);
  A.addTransition(0, 0, 1); // duplicate again
  std::vector<Buchi::Arc> Want{{1, 2}, {0, 1}, {1, 0}};
  EXPECT_TRUE(std::ranges::equal(A.arcsFrom(0), Want));
  EXPECT_EQ(A.successors(0, 1), (std::vector<State>{2, 0}));
  EXPECT_EQ(A.numTransitions(), 3u);
}

TEST(CsrIndex, RowSpansSurviveEveryReadUntilTheNextMutation) {
  // Read a row, then append to another state: every read afterwards must
  // compact the whole log at once, so a row span taken during the search
  // is not moved by the reads that follow it. sccDecompose keeps one span
  // per DFS frame.
  Buchi A(1);
  A.addStates(3);
  A.addTransition(0, 0, 1);
  A.addTransition(0, 0, 2);
  A.addInitial(0);
  EXPECT_EQ(A.arcsFrom(0).size(), 2u);
  A.addTransition(1, 0, 0);
  SccDecomposition D = sccDecompose(A);
  EXPECT_EQ(D.NumComps, 2u);
  EXPECT_TRUE(D.sameComponent(0, 1));
  EXPECT_FALSE(D.sameComponent(0, 2));
  EXPECT_GE(D.CompOf[2], 0);

  // The same with spans held directly: reads of other rows, the index and
  // the totals leave an earlier span in place.
  A.addTransition(2, 0, 2);
  A.addTransition(1, 0, 2);
  std::span<const Buchi::Arc> Row0 = A.arcsFrom(0);
  std::vector<Buchi::Arc> Copy(Row0.begin(), Row0.end());
  EXPECT_EQ(A.arcsFrom(1).size(), 2u);
  EXPECT_EQ(A.successors(2, 0), (std::vector<State>{2}));
  EXPECT_EQ(A.numTransitions(), 5u);
  EXPECT_EQ(Row0.data(), A.arcsFrom(0).data());
  EXPECT_TRUE(std::ranges::equal(Row0, Copy));
}

//===----------------------------------------------------------------------===//
// Interner vs reference map
//===----------------------------------------------------------------------===//

StateSet randomSet(Rng &R) {
  StateSet S;
  size_t N = R.below(6);
  for (size_t I = 0; I < N; ++I)
    S.insert(static_cast<State>(R.below(8)));
  return S;
}

TEST(InternerEquivalence, IdsMatchFirstInternOrderReferenceMap) {
  Rng R(0x1E70001);
  Interner<StateSet> Table;
  std::map<std::vector<State>, State> Ref;
  std::vector<StateSet> ById;
  for (int I = 0; I < 3000; ++I) {
    StateSet V = randomSet(R);
    auto [It, Inserted] =
        Ref.emplace(V.elems(), static_cast<State>(Ref.size()));
    if (Inserted)
      ById.push_back(V);
    // intern() must agree with the reference: dense ids in first-intern
    // order.
    State Id = Table.intern(V);
    EXPECT_EQ(Id, It->second);
    EXPECT_TRUE(Table[Id] == V);
  }
  ASSERT_EQ(Table.size(), Ref.size());
  for (State Id = 0; Id < ById.size(); ++Id)
    EXPECT_TRUE(Table[Id] == ById[Id]) << "id " << Id;
}

TEST(InternerEquivalence, ReferencesStayStableAcrossArenaGrowth) {
  Interner<StateSet> Table;
  StateSet First;
  First.insert(7);
  State FirstId = Table.intern(First);
  const StateSet &Pinned = Table[FirstId];
  // Grow the arena by orders of magnitude past the first chunk.
  Rng R(0x1E70002);
  for (int I = 0; I < 5000; ++I) {
    StateSet V = randomSet(R);
    V.insert(static_cast<State>(100 + I)); // force distinct values
    Table.intern(std::move(V));
  }
  EXPECT_TRUE(Pinned == First) << "arena growth moved an interned value";
  EXPECT_EQ(Table.intern(First), FirstId);
}

TEST(InternerEquivalence, WordInternerIdsMatchReferenceMapAcrossGrowth) {
  // Width 3, values drawn from a small space so hits and misses mix; the
  // word arena and the id table both grow many times.
  Rng R(0x1E70003);
  WordInterner Table(3);
  std::map<std::vector<uint64_t>, State> Ref;
  std::vector<std::vector<uint64_t>> ById;
  for (int I = 0; I < 6000; ++I) {
    std::vector<uint64_t> V{R.below(16), R.below(16) << 40, R.below(12)};
    auto [It, Inserted] = Ref.emplace(V, static_cast<State>(Ref.size()));
    if (Inserted)
      ById.push_back(V);
    EXPECT_EQ(Table.intern(V.data()), It->second);
  }
  ASSERT_EQ(Table.size(), Ref.size());
  for (State Id = 0; Id < ById.size(); ++Id)
    EXPECT_TRUE(std::equal(ById[Id].begin(), ById[Id].end(), Table.words(Id)))
        << "id " << Id;
}

//===----------------------------------------------------------------------===//
// Complement constructions: determinism and cross-engine agreement
//===----------------------------------------------------------------------===//

TEST(ConstructionEquivalence, MaterializationsAreDeterministicOnSdbaCorpus) {
  Rng R(0xD1FF0001);
  for (int Iter = 0; Iter < 200; ++Iter) {
    uint32_t Q1 = 1 + static_cast<uint32_t>(R.below(3));
    uint32_t Q2 = 1 + static_cast<uint32_t>(R.below(5));
    uint32_t Symbols = 1 + static_cast<uint32_t>(R.below(2));
    Buchi A = randomSdba(R, Q1, Q2, Symbols);
    auto S = prepareSdba(A);
    ASSERT_TRUE(S.has_value());
    for (NcsbVariant V : {NcsbVariant::Original, NcsbVariant::Lazy}) {
      Buchi C1 = NcsbOracle(*S, V).materialize();
      Buchi C2 = NcsbOracle(*S, V).materialize();
      EXPECT_EQ(C1.str(), C2.str())
          << "nondeterministic materialization, iter " << Iter;
    }
  }
}

TEST(ConstructionEquivalence, NcsbVariantsAgreeWithRankComplement) {
  // Three independent complementation engines over the same input; sampled
  // ultimately periodic words must be classified identically. This is the
  // differential check that the CSR/interner-backed constructions still
  // build automata with the same language as before the overhaul. The
  // rank-based oracle is exponential, so this corpus stays tiny (the
  // NCSB variants get the larger corpus in the determinism test above).
  Rng R(0xD1FF0002);
  for (int Iter = 0; Iter < 40; ++Iter) {
    uint32_t Q1 = 1;
    uint32_t Q2 = 1 + static_cast<uint32_t>(R.below(2));
    uint32_t Symbols = 1 + static_cast<uint32_t>(R.below(2));
    Buchi A = randomSdba(R, Q1, Q2, Symbols);
    auto S = prepareSdba(A);
    ASSERT_TRUE(S.has_value());
    Buchi Original = NcsbOracle(*S, NcsbVariant::Original).materialize();
    Buchi Lazy = NcsbOracle(*S, NcsbVariant::Lazy).materialize();
    Buchi Complete = completeWithSink(A);
    Buchi Rank = RankComplementOracle(Complete).materialize();
    for (int W = 0; W < 25; ++W) {
      LassoWord L = randomLasso(R, Symbols, 3, 3);
      bool InA = acceptsLasso(A, L);
      EXPECT_NE(InA, acceptsLasso(Original, L)) << L.str();
      EXPECT_NE(InA, acceptsLasso(Lazy, L)) << L.str();
      EXPECT_NE(InA, acceptsLasso(Rank, L)) << L.str();
    }
  }
}

//===----------------------------------------------------------------------===//
// End-to-end: corpus verdicts and deterministic reports
//===----------------------------------------------------------------------===//

std::string corpusPath(const std::string &File) {
  return std::string(TERMCHECK_CORPUS_DIR) + "/" + File;
}

Program loadCorpusProgram(const std::string &Stem) {
  std::ifstream In(corpusPath(Stem + ".while"));
  EXPECT_TRUE(In.good()) << Stem;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  ParseResult R = parseProgram(Buf.str());
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(*R.Prog);
}

TEST(HotpathEndToEnd, CorpusVerdictsMatchCheckedInExpectations) {
  // EXPECTATIONS.txt is keyed by the program name declared in the source,
  // not by the file stem, so walk the corpus and match on Program::name().
  std::ifstream Expect(corpusPath("EXPECTATIONS.txt"));
  ASSERT_TRUE(Expect.good());
  std::map<std::string, std::string> Expected;
  std::string Line;
  while (std::getline(Expect, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Name, Verdict;
    LS >> Name >> Verdict;
    Expected[Name] = Verdict;
  }
  ASSERT_FALSE(Expected.empty());
  std::map<std::string, std::string> Got;
  for (const auto &Entry :
       std::filesystem::directory_iterator(TERMCHECK_CORPUS_DIR)) {
    if (Entry.path().extension() != ".while")
      continue;
    Program P = loadCorpusProgram(Entry.path().stem().string());
    AnalyzerOptions Opts;
    Opts.TimeoutSeconds = 30;
    AnalysisResult R = TerminationAnalyzer(P, Opts).run();
    Got[P.name()] = verdictName(R.V);
  }
  for (const auto &[Name, Want] : Expected) {
    auto It = Got.find(Name);
    ASSERT_NE(It, Got.end()) << "no corpus program named " << Name;
    EXPECT_EQ(It->second, Want) << Name;
  }
}

TEST(HotpathEndToEnd, DeterministicReportsAreByteIdenticalWithPerfCounters) {
  auto ReportFor = [](const std::string &Stem) {
    Program P = loadCorpusProgram(Stem);
    AnalyzerOptions Opts;
    Opts.TimeoutSeconds = 30;
    AnalysisResult R = TerminationAnalyzer(P, Opts).run();
    RunReportInput In;
    In.ProgramName = P.name();
    In.SourcePath = Stem + ".while";
    In.Result = &R;
    In.Jobs = 1;
    In.TimeoutSeconds = 30;
    std::ostringstream OS;
    writeRunReport(OS, In, {/*Deterministic=*/true});
    return OS.str();
  };
  for (const char *Stem : {"psort", "up_down"}) {
    std::string First = ReportFor(Stem);
    std::string Second = ReportFor(Stem);
    EXPECT_EQ(First, Second) << "deterministic report not byte-stable for "
                             << Stem;
    json::Value V;
    std::string Err;
    ASSERT_TRUE(json::parse(First, V, &Err)) << Err;
    const json::Value *Counters = V.find("counters");
    ASSERT_NE(Counters, nullptr);
    for (const char *Key : {"perf.csr_rebuilds", "perf.intern_hits",
                            "perf.intern_misses", "perf.arcs_memoized"})
      EXPECT_NE(Counters->find(Key), nullptr)
          << "report of " << Stem << " is missing counter " << Key;
  }
}

} // namespace
