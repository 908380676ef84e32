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
///    two runs produce byte-identical statistics dumps, and
///  * an external cancel stops the race the same way at Jobs 1 and 3:
///    no entrant starts once it is set, and running ones end CANCELLED.
///
/// This test is also the designated TSan workload: with Jobs > 1 it
/// exercises the thread pool, the shared cancellation token, and the
/// post-race statistics merge on every corpus program.
///
//===----------------------------------------------------------------------===//

#include "termination/Portfolio.h"

#include "benchgen/ProgramFamilies.h"
#include "program/Parser.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

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

/// Every value field of \p O (the pointer fields are per-run plumbing
/// that no roster entry sets).
auto optionFields(const AnalyzerOptions &O) {
  return std::make_tuple(O.Sequence, O.MultiStage, O.Ncsb, O.Complement,
                         O.UseSubsumption, O.TimeoutSeconds, O.MaxIterations,
                         O.ReduceRemaining, O.ProveNontermination,
                         O.Nonterm.MaxCegisRounds, O.Nonterm.MaxWitnessTrials,
                         O.Nonterm.MaxUnroll, O.Nonterm.TrialValueRange,
                         O.Nonterm.Seed, O.UnknownLassoBudget,
                         O.MaxProductStates);
}

} // namespace

TEST(Portfolio, MatchesSequentialVerdictOnCorpus) {
  std::vector<CorpusEntry> Corpus = loadCorpus();
  ASSERT_GE(Corpus.size(), 10u);
  std::vector<PortfolioConfig> Configs = defaultPortfolio(PortfolioRosterSize);
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
  std::vector<PortfolioConfig> Configs = defaultPortfolio(PortfolioRosterSize);
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
  // Under Jobs == 1 entry 0 concludes on most programs, so the later
  // entrants would rarely run in the sweep above: race each entrant alone
  // as a one-entry roster, which must stay byte-deterministic too. A
  // subset of the corpus keeps the test inside its budget.
  std::vector<CorpusEntry> Corpus = loadCorpus();
  ASSERT_GE(Corpus.size(), 6u);
  for (const PortfolioConfig &C : defaultPortfolio(PortfolioRosterSize)) {
    std::vector<PortfolioConfig> Configs = {C};
    for (size_t I = 0; I < Corpus.size(); I += 3) {
      PortfolioOptions PO;
      PO.Jobs = 1;
      PO.TimeoutSeconds = 30;
      PortfolioRunResult First = runPortfolio(Corpus[I].Prog, Configs, PO);
      PortfolioRunResult Second = runPortfolio(Corpus[I].Prog, Configs, PO);
      EXPECT_EQ(First.Result.V, Second.Result.V)
          << C.Name << " on " << Corpus[I].Name;
      EXPECT_EQ(First.Merged.str(), Second.Merged.str())
          << C.Name << " on " << Corpus[I].Name
          << ": statistics dump must be byte-identical";
    }
  }
}

TEST(Portfolio, RosterIsDiverseAndClamped) {
  EXPECT_EQ(defaultPortfolio(0).size(), 1u);
  EXPECT_EQ(defaultPortfolio(100).size(), PortfolioRosterSize);
  std::vector<PortfolioConfig> Configs =
      defaultPortfolio(PortfolioRosterSize);
  // The roster the audits in ROADMAP.md kept, in its pre-audit relative
  // order, so a --portfolio K prefix races what it raced before.
  std::vector<std::string> Names;
  for (const PortfolioConfig &C : Configs)
    Names.push_back(C.Name);
  EXPECT_EQ(Names, (std::vector<std::string>{
                       "seq_i-lazy-sub", "seq_iii-lazy-sub",
                       "nonterm-modular-deep"}));
  // No two entrants race the same options.
  for (size_t I = 0; I < Configs.size(); ++I)
    for (size_t J = I + 1; J < Configs.size(); ++J)
      EXPECT_TRUE(optionFields(Configs[I].Opts) !=
                  optionFields(Configs[J].Opts))
          << Configs[I].Name << " and " << Configs[J].Name;
  // The roster audit dropped every sequence (ii) entrant; the Section 7
  // ablation still reaches that sequence through --sequence ii.
  for (const PortfolioConfig &C : Configs)
    EXPECT_NE(C.Opts.Sequence, AnalyzerOptions::sequenceSkipSemi()) << C.Name;
  // Entry 0 is the library default configuration.
  EXPECT_TRUE(optionFields(Configs[0].Opts) ==
              optionFields(AnalyzerOptions()));
  // An entrant's name says whether it races the modular complement and
  // the enlarged recurrence-prover budgets.
  RecurrenceOptions DefaultNonterm;
  for (const PortfolioConfig &C : Configs) {
    bool Modular = C.Opts.Complement == ComplementStrategy::Modular;
    bool Biased =
        C.Opts.Nonterm.MaxCegisRounds > DefaultNonterm.MaxCegisRounds &&
        C.Opts.Nonterm.MaxUnroll > DefaultNonterm.MaxUnroll;
    EXPECT_EQ(Modular, C.Name.find("modular") != std::string::npos)
        << C.Name;
    EXPECT_EQ(Biased, C.Name.find("nonterm") != std::string::npos)
        << C.Name;
  }
}

TEST(Portfolio, ModularEntrantsAreDeterministicWithCounters) {
  // The modular entrants must keep the Jobs == 1 contract: byte-identical
  // merged dumps across runs. At least one corpus program must actually
  // subtract a module through the modular complement, which the
  // complement.modular counter under the entrant's cfg. prefix records.
  std::vector<CorpusEntry> Corpus = loadCorpus();
  ASSERT_FALSE(Corpus.empty());
  std::vector<PortfolioConfig> Configs = defaultPortfolio(PortfolioRosterSize);
  std::erase_if(Configs, [](const PortfolioConfig &C) {
    return C.Opts.Complement != ComplementStrategy::Modular;
  });
  ASSERT_FALSE(Configs.empty());
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
  std::vector<PortfolioConfig> Configs = defaultPortfolio(PortfolioRosterSize);
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
  std::vector<PortfolioConfig> Configs = defaultPortfolio(PortfolioRosterSize);
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

TEST(Portfolio, PreCancelledRunStartsNoEntrant) {
  ParseResult R = parseProgram(
      "program p(i) { while (i > 0) { i := i - 1; } }\n");
  ASSERT_TRUE(R.ok());
  std::vector<PortfolioConfig> Configs = defaultPortfolio(PortfolioRosterSize);
  CancellationToken Token;
  Token.cancel();
  for (size_t Jobs : {size_t(1), size_t(3)}) {
    PortfolioOptions PO;
    PO.Jobs = Jobs;
    PO.TimeoutSeconds = 30;
    PO.Cancel = &Token;
    PortfolioRunResult Out = runPortfolio(*R.Prog, Configs, PO);
    EXPECT_EQ(Out.Result.V, Verdict::Cancelled) << "jobs " << Jobs;
    EXPECT_EQ(Out.WinnerIndex, Configs.size()) << "jobs " << Jobs;
    EXPECT_EQ(Out.WinnerName, "<cancelled before any entrant ran>")
        << "jobs " << Jobs;
    ASSERT_EQ(Out.Entrants.size(), Configs.size());
    for (const EntrantTimeline &TL : Out.Entrants)
      EXPECT_FALSE(TL.Started) << TL.Name << " at jobs " << Jobs;
  }
}

namespace {

/// Cancels a token at the first stage_attempt any entrant emits.
class CancelAtFirstStageAttempt : public TraceSink {
public:
  explicit CancelAtFirstStageAttempt(CancellationToken &Token)
      : Token(Token) {}

  void consume(const TraceEvent &E) override {
    if (E.Kind == TraceEventKind::StageAttempt)
      Token.cancel();
  }

private:
  CancellationToken &Token;
};

} // namespace

TEST(Portfolio, CancelDuringTheRaceReachesRunningEntrants) {
  // No entrant decides gcd_like within the budget, so only the cancel,
  // raised while an entrant generalizes its first lasso, can end the race
  // early -- and it must, at both Jobs values.
  const std::vector<BenchProgram> Suite = benchmarkSuite();
  auto Gcd = std::find_if(Suite.begin(), Suite.end(),
                          [](const BenchProgram &B) {
                            return B.Name == "gcd_like";
                          });
  ASSERT_NE(Gcd, Suite.end());
  ParseResult R = parseProgram(Gcd->Source);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::vector<PortfolioConfig> Configs = defaultPortfolio(PortfolioRosterSize);
  for (size_t Jobs : {size_t(1), size_t(3)}) {
    CancellationToken Token;
    CancelAtFirstStageAttempt Sink(Token);
    Trace TR(Sink);
    PortfolioOptions PO;
    PO.Jobs = Jobs;
    PO.TimeoutSeconds = 10;
    PO.Cancel = &Token;
    PO.Tracer = &TR;
    PortfolioRunResult Out = runPortfolio(*R.Prog, Configs, PO);
    ASSERT_TRUE(Token.cancelled()) << "no stage attempt at jobs " << Jobs;
    EXPECT_EQ(Out.Result.V, Verdict::Cancelled) << "jobs " << Jobs;
    EXPECT_EQ(Out.WinnerIndex, Configs.size()) << "jobs " << Jobs;
    for (const EntrantTimeline &TL : Out.Entrants)
      EXPECT_FALSE(TL.Won) << TL.Name << " at jobs " << Jobs;
  }
}
