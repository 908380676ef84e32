//===- tests/portfolio_test.cpp - Portfolio runner correctness ------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The portfolio's contract against the plain sequential analyzer, over
/// the on-disk benchmark corpus:
///
///  * whenever a sequential run of the default configuration concludes,
///    the racing portfolio reaches the same verdict (a deeper entrant may
///    additionally conclude where the default answered Unknown),
///  * the winner's certified modules pass the independent Definition 3.1
///    checker (cancellation must never leak a truncated module), and
///  * with Jobs == 1 the runner is a deterministic sequential fallback:
///    two runs produce byte-identical statistics dumps.
///
/// This test is also the designated TSan workload: with Jobs > 1 it
/// exercises the thread pool, the shared cancellation token, and the
/// post-race statistics merge on every corpus program.
///
//===----------------------------------------------------------------------===//

#include "termination/Portfolio.h"

#include "program/Parser.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace termcheck;

namespace {

#ifndef TERMCHECK_CORPUS_DIR
#error "build must define TERMCHECK_CORPUS_DIR"
#endif

struct CorpusEntry {
  std::string Name;
  Program Prog;
};

std::vector<CorpusEntry> loadCorpus() {
  std::vector<CorpusEntry> Out;
  for (const auto &Entry :
       std::filesystem::directory_iterator(TERMCHECK_CORPUS_DIR)) {
    if (Entry.path().extension() != ".while")
      continue;
    std::ifstream In(Entry.path());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    ParseResult R = parseProgram(Buf.str());
    if (!R.ok())
      ADD_FAILURE() << Entry.path() << ": " << R.Error;
    else
      Out.push_back({Entry.path().stem().string(), std::move(*R.Prog)});
  }
  std::sort(Out.begin(), Out.end(),
            [](const CorpusEntry &A, const CorpusEntry &B) {
              return A.Name < B.Name;
            });
  return Out;
}

} // namespace

TEST(Portfolio, MatchesSequentialVerdictOnCorpus) {
  std::vector<CorpusEntry> Corpus = loadCorpus();
  ASSERT_GE(Corpus.size(), 10u);
  std::vector<PortfolioConfig> Configs = defaultPortfolio(6);
  for (const CorpusEntry &E : Corpus) {
    AnalyzerOptions Sequential;
    Sequential.TimeoutSeconds = 30;
    Program Copy = E.Prog;
    AnalysisResult Ref = TerminationAnalyzer(Copy, Sequential).run();

    PortfolioOptions PO;
    PO.Jobs = 4; // force the threaded path even on small machines
    PO.TimeoutSeconds = 30;
    PortfolioRunResult R = runPortfolio(E.Prog, Configs, PO);

    // When the sequential default concludes, the portfolio must agree
    // (entrants are sound both ways, so two conclusive verdicts can never
    // differ). When the default is inconclusive a deeper entrant may still
    // conclude -- that is the point of the nonterm-biased roster slots --
    // so only require the portfolio to be at least as conclusive.
    if (isConclusive(Ref.V)) {
      EXPECT_EQ(R.Result.V, Ref.V) << E.Name << ": portfolio verdict "
                                   << verdictName(R.Result.V)
                                   << " != sequential "
                                   << verdictName(Ref.V);
      ASSERT_LT(R.WinnerIndex, Configs.size()) << E.Name;
      EXPECT_EQ(R.WinnerName, Configs[R.WinnerIndex].Name);
    }
    // A Nonterminating verdict is only ever reported with a certificate
    // that revalidates against the original program.
    if (R.Result.V == Verdict::Nonterminating) {
      ASSERT_TRUE(R.Result.Nonterm.has_value()) << E.Name;
      EXPECT_EQ(R.Result.Nonterm->validate(E.Prog), "") << E.Name;
    }
    // The winner's modules are a real termination certificate; a cancelled
    // loser must never contribute a truncated one.
    for (const CertifiedModule &M : R.Result.Modules)
      EXPECT_EQ(validateModule(M, E.Prog), "") << E.Name;
  }
}

TEST(Portfolio, SequentialFallbackIsDeterministic) {
  std::vector<CorpusEntry> Corpus = loadCorpus();
  ASSERT_FALSE(Corpus.empty());
  std::vector<PortfolioConfig> Configs = defaultPortfolio(6);
  for (const CorpusEntry &E : Corpus) {
    PortfolioOptions PO;
    PO.Jobs = 1;
    PO.TimeoutSeconds = 30;
    PortfolioRunResult First = runPortfolio(E.Prog, Configs, PO);
    PortfolioRunResult Second = runPortfolio(E.Prog, Configs, PO);
    EXPECT_EQ(First.Result.V, Second.Result.V) << E.Name;
    EXPECT_EQ(First.WinnerIndex, Second.WinnerIndex) << E.Name;
    EXPECT_EQ(First.Merged.str(), Second.Merged.str())
        << E.Name << ": statistics dump must be byte-identical";
  }
}

TEST(Portfolio, FullRosterIsDeterministicSequentially) {
  // The whole roster under Jobs == 1 stays a byte-deterministic
  // sequential fallback. A subset of the corpus keeps the test inside its
  // budget; SequentialFallbackIsDeterministic sweeps every program with
  // the shorter roster.
  std::vector<CorpusEntry> Corpus = loadCorpus();
  ASSERT_GE(Corpus.size(), 6u);
  std::vector<PortfolioConfig> Configs =
      defaultPortfolio(PortfolioRosterSize);
  ASSERT_EQ(Configs.size(), PortfolioRosterSize);
  for (size_t I = 0; I < Corpus.size(); I += 3) {
    PortfolioOptions PO;
    PO.Jobs = 1;
    PO.TimeoutSeconds = 30;
    PortfolioRunResult First = runPortfolio(Corpus[I].Prog, Configs, PO);
    PortfolioRunResult Second = runPortfolio(Corpus[I].Prog, Configs, PO);
    EXPECT_EQ(First.Result.V, Second.Result.V) << Corpus[I].Name;
    EXPECT_EQ(First.WinnerIndex, Second.WinnerIndex) << Corpus[I].Name;
    EXPECT_EQ(First.Merged.str(), Second.Merged.str())
        << Corpus[I].Name << ": statistics dump must be byte-identical";
  }
}

TEST(Portfolio, RosterIsDiverseAndClamped) {
  EXPECT_EQ(defaultPortfolio(0).size(), 1u);
  EXPECT_EQ(defaultPortfolio(100).size(), PortfolioRosterSize);
  std::vector<PortfolioConfig> Configs =
      defaultPortfolio(PortfolioRosterSize);
  ASSERT_EQ(Configs.size(), 12u);
  for (size_t I = 0; I < Configs.size(); ++I)
    for (size_t J = I + 1; J < Configs.size(); ++J)
      EXPECT_NE(Configs[I].Name, Configs[J].Name);
  // The roster audit dropped every sequence (ii) entrant; the Section 7
  // ablation still reaches that sequence through --sequence ii.
  for (const PortfolioConfig &C : Configs)
    EXPECT_NE(C.Opts.Sequence, AnalyzerOptions::sequenceSkipSemi()) << C.Name;
  // Entry 0 is the library default configuration.
  AnalyzerOptions Default;
  EXPECT_EQ(Configs[0].Opts.Sequence, Default.Sequence);
  EXPECT_EQ(Configs[0].Opts.Ncsb, Default.Ncsb);
  EXPECT_EQ(Configs[0].Opts.UseSubsumption, Default.UseSubsumption);
  // The roster carries nonterm-biased entrants with enlarged recurrence
  // budgets, reachable from a small prefix; the full roster adds a third
  // (the deep modular entrant at the tail).
  RecurrenceOptions DefaultNonterm;
  size_t Biased = 0;
  for (const PortfolioConfig &C : Configs)
    if (C.Opts.Nonterm.MaxCegisRounds > DefaultNonterm.MaxCegisRounds)
      ++Biased;
  EXPECT_EQ(Biased, 3u);
  EXPECT_GT(defaultPortfolio(3).back().Opts.Nonterm.MaxUnroll,
            DefaultNonterm.MaxUnroll);
  // The modular entrants ride at the tail: every other slot races the Auto
  // complement strategy, and slots 10-11 race the modular complement.
  for (size_t I = 0; I + 2 < PortfolioRosterSize; ++I)
    EXPECT_EQ(Configs[I].Opts.Complement, ComplementStrategy::Auto)
        << Configs[I].Name;
  for (size_t I = PortfolioRosterSize - 2; I < PortfolioRosterSize; ++I) {
    EXPECT_EQ(Configs[I].Opts.Complement, ComplementStrategy::Modular)
        << Configs[I].Name;
    EXPECT_NE(Configs[I].Name.find("modular"), std::string::npos)
        << Configs[I].Name;
  }
}

TEST(Portfolio, ModularEntrantsAreDeterministicWithCounters) {
  // The modular entrants must keep the Jobs == 1 contract: byte-identical
  // merged dumps across runs. At least one corpus program must actually
  // subtract a module through the modular complement, which the
  // complement.modular counter under the entrant's cfg. prefix records.
  std::vector<CorpusEntry> Corpus = loadCorpus();
  ASSERT_FALSE(Corpus.empty());
  std::vector<PortfolioConfig> All = defaultPortfolio(PortfolioRosterSize);
  std::vector<PortfolioConfig> Configs = {All[PortfolioRosterSize - 2],
                                          All[PortfolioRosterSize - 1]};
  ASSERT_EQ(Configs[0].Opts.Complement, ComplementStrategy::Modular);
  int64_t TotalBuilds = 0;
  for (const CorpusEntry &E : Corpus) {
    PortfolioOptions PO;
    PO.Jobs = 1;
    PO.TimeoutSeconds = 30;
    PortfolioRunResult First = runPortfolio(E.Prog, Configs, PO);
    PortfolioRunResult Second = runPortfolio(E.Prog, Configs, PO);
    EXPECT_EQ(First.Result.V, Second.Result.V) << E.Name;
    EXPECT_EQ(First.Merged.str(), Second.Merged.str())
        << E.Name << ": statistics dump must be byte-identical";
    for (const PortfolioConfig &C : Configs)
      TotalBuilds += First.Merged.get("cfg." + C.Name + ".complement.modular");
  }
  EXPECT_GT(TotalBuilds, 0) << "no corpus program exercised a modular build";
}

TEST(Portfolio, UnknownNeverOutracesConclusive) {
  // skip_forever-style program: the default entrant used to answer
  // Unknown; the winner must be a conclusive NONTERMINATING entrant, and
  // an Unknown finisher must never be reported as the race result.
  ParseResult R = parseProgram(
      "program p(i) { while (true) { i := i + 1; } }\n");
  ASSERT_TRUE(R.ok());
  std::vector<PortfolioConfig> Configs = defaultPortfolio(6);
  for (size_t Jobs : {size_t(1), size_t(4)}) {
    PortfolioOptions PO;
    PO.Jobs = Jobs;
    PO.TimeoutSeconds = 30;
    PortfolioRunResult Out = runPortfolio(*R.Prog, Configs, PO);
    EXPECT_EQ(Out.Result.V, Verdict::Nonterminating) << "jobs " << Jobs;
    ASSERT_LT(Out.WinnerIndex, Configs.size()) << "jobs " << Jobs;
    ASSERT_TRUE(Out.Result.Nonterm.has_value()) << "jobs " << Jobs;
    EXPECT_EQ(Out.Result.Nonterm->validate(*R.Prog), "") << "jobs " << Jobs;
  }
}

TEST(Portfolio, DisableNontermDegradesToUnknown) {
  ParseResult R = parseProgram(
      "program p(i) { while (true) { i := i + 1; } }\n");
  ASSERT_TRUE(R.ok());
  std::vector<PortfolioConfig> Configs = defaultPortfolio(4);
  PortfolioOptions PO;
  PO.Jobs = 1;
  PO.TimeoutSeconds = 30;
  PO.DisableNonterm = true;
  PortfolioRunResult Out = runPortfolio(*R.Prog, Configs, PO);
  EXPECT_EQ(Out.Result.V, Verdict::Unknown);
  EXPECT_EQ(Out.WinnerIndex, Configs.size()) << "nobody may conclude";
  EXPECT_FALSE(Out.Result.Nonterm.has_value());
  EXPECT_TRUE(Out.Result.Counterexample.has_value())
      << "the Unknown fallback carries the counterexample lasso";
}

TEST(Portfolio, CancellationPreemptsARunningAnalysis) {
  // A program every configuration times out on within the budget window
  // would be flaky; instead cancel before the race starts and check the
  // token short-circuits every entrant.
  ParseResult R = parseProgram(
      "program p(i) { while (i > 0) { i := i - 1; } }\n");
  ASSERT_TRUE(R.ok());
  CancellationToken Token;
  Token.cancel();
  AnalyzerOptions O;
  O.Cancel = &Token;
  Program Copy = *R.Prog;
  AnalysisResult Res = TerminationAnalyzer(Copy, O).run();
  EXPECT_EQ(Res.V, Verdict::Cancelled);
  EXPECT_FALSE(isConclusive(Res.V));
}
