//===- tests/chaos_test.cpp - Seeded fault-injection chaos suite ----------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The fault-containment contract, asserted over hundreds of deterministic
/// seeded runs against the on-disk benchmark corpus:
///
///  * the process never crashes: every injected fault (EngineError of any
///    kind, a foreign std::runtime_error, std::bad_alloc) is either
///    contained inside the analyzer or captured at the run boundary,
///  * nothing hangs: analyzer runs end within their budget and the
///    portfolio's waitIdle always returns, faults or not,
///  * verdicts only ever WEAKEN: a faulted run may degrade a conclusive
///    verdict to UNKNOWN or TIMEOUT, but can never flip TERMINATING to
///    NONTERMINATING or vice versa relative to EXPECTATIONS.txt.
///
/// Determinism: the injector derives its whole plan from the seed, so any
/// failure here reproduces by running the same seed again.
///
//===----------------------------------------------------------------------===//

#include "termination/Portfolio.h"

#include "program/Parser.h"
#include "server/Scheduler.h"
#include "support/Error.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

using namespace termcheck;

namespace {

#ifndef TERMCHECK_CORPUS_DIR
#error "build must define TERMCHECK_CORPUS_DIR"
#endif

struct CorpusEntry {
  std::string File;
  Program Prog;
  Verdict Expected;
};

/// Loads every corpus program that has a recorded verdict expectation.
/// EXPECTATIONS.txt is keyed by the program's declared name (what the CLI
/// prints), not the file name.
std::vector<CorpusEntry> loadCorpusWithExpectations() {
  std::map<std::string, Verdict> Expected;
  {
    std::ifstream In(std::string(TERMCHECK_CORPUS_DIR) +
                     "/EXPECTATIONS.txt");
    EXPECT_TRUE(In.good()) << "missing EXPECTATIONS.txt";
    std::string Name, V;
    while (In >> Name >> V) {
      if (!Name.empty() && Name[0] == '#') {
        std::string Rest;
        std::getline(In, Rest);
        continue;
      }
      if (V == "TERMINATING")
        Expected[Name] = Verdict::Terminating;
      else if (V == "NONTERMINATING")
        Expected[Name] = Verdict::Nonterminating;
      else
        ADD_FAILURE() << "bad expectation: " << Name << " " << V;
    }
  }
  std::vector<CorpusEntry> Out;
  for (const auto &Entry :
       std::filesystem::directory_iterator(TERMCHECK_CORPUS_DIR)) {
    if (Entry.path().extension() != ".while")
      continue;
    std::ifstream In(Entry.path());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    ParseResult R = parseProgram(Buf.str());
    if (!R.ok()) {
      ADD_FAILURE() << Entry.path() << ": " << R.Error;
      continue;
    }
    auto It = Expected.find(R.Prog->name());
    if (It == Expected.end())
      continue;
    Out.push_back(
        {Entry.path().stem().string(), std::move(*R.Prog), It->second});
  }
  // Deterministic order regardless of directory iteration order.
  std::sort(Out.begin(), Out.end(),
            [](const CorpusEntry &A, const CorpusEntry &B) {
              return A.File < B.File;
            });
  EXPECT_GE(Out.size(), 10u) << "corpus unexpectedly small";
  return Out;
}

AnalyzerOptions chaosOptions() {
  AnalyzerOptions Opts;
  // Tight but sufficient: every corpus program concludes well inside this
  // budget when healthy, and a faulted run that degrades to resampling is
  // cut off instead of hanging the suite.
  Opts.TimeoutSeconds = 5;
  return Opts;
}

/// RAII disarm: a failing assertion must not leak an armed injector into
/// the next test.
struct ArmedScope {
  explicit ArmedScope(uint64_t Seed) { FaultInjector::arm(Seed); }
  ~ArmedScope() { FaultInjector::disarm(); }
};

AnalyzerOptions modularChaosOptions() {
  AnalyzerOptions Opts = chaosOptions();
  Opts.Complement = ComplementStrategy::Modular;
  return Opts;
}

/// One seeded analyzer run. \returns the result, or the captured fault for
/// flavors the analyzer deliberately does not contain (foreign exceptions,
/// bad_alloc).
ErrorOr<AnalysisResult> chaosRun(const Program &P, uint64_t Seed,
                                 uint64_t &FiredOut,
                                 const AnalyzerOptions &Opts = chaosOptions()) {
  ArmedScope Armed(Seed);
  Program Local = P;
  TerminationAnalyzer A(Local, Opts);
  ErrorOr<AnalysisResult> R = errorOrOf([&A] { return A.run(); });
  FiredOut = FaultInjector::firedCount();
  return R;
}

/// The weakening check: a faulted run that still concludes must agree with
/// the recorded expectation; inconclusive verdicts are always acceptable.
void expectNoFlip(const CorpusEntry &E, Verdict Got, uint64_t Seed) {
  if (isConclusive(Got)) {
    EXPECT_EQ(Got, E.Expected)
        << E.File << " flipped verdict under fault seed " << Seed;
  }
}

TEST(Chaos, SeededAnalyzerRunsNeverCrashOrFlipVerdicts) {
  std::vector<CorpusEntry> Corpus = loadCorpusWithExpectations();
  ASSERT_FALSE(Corpus.empty());

  const uint64_t Runs = 320;
  uint64_t TotalFired = 0, Faulted = 0, StillConclusive = 0, Degraded = 0;
  for (uint64_t Seed = 1; Seed <= Runs; ++Seed) {
    const CorpusEntry &E = Corpus[Seed % Corpus.size()];
    uint64_t Fired = 0;
    ErrorOr<AnalysisResult> R = chaosRun(E.Prog, Seed, Fired);
    TotalFired += Fired;
    if (Fired != 0)
      ++Faulted;
    if (!R.ok())
      continue; // captured at the boundary: contained, just inconclusive
    expectNoFlip(E, R.value().V, Seed);
    if (Fired != 0) {
      if (isConclusive(R.value().V))
        ++StillConclusive;
      else
        ++Degraded;
    }
  }
  // The sweep must actually exercise the machinery, not vacuously pass.
  EXPECT_GT(TotalFired, Runs / 4) << "injector barely fired; sites stale?";
  EXPECT_GT(Faulted, 0u);
  // Some faulted runs should still conclude (containment works), and
  // typically some degrade (the checks above are not vacuous).
  EXPECT_GT(StillConclusive + Degraded, 0u);
}

TEST(Chaos, HealthyRunsMatchExpectationsExactly) {
  // Control group: with the injector disarmed the analyzer must conclude
  // every corpus program correctly -- otherwise the weakening checks above
  // test nothing.
  FaultInjector::disarm();
  for (const CorpusEntry &E : loadCorpusWithExpectations()) {
    Program Local = E.Prog;
    TerminationAnalyzer A(Local, chaosOptions());
    AnalysisResult R = A.run();
    EXPECT_EQ(R.V, E.Expected) << E.File;
  }
}

TEST(Chaos, HealthyModularRunsMatchExpectationsExactly) {
  // End-to-end control group for the modular complement strategy: with the
  // injector disarmed, --complement modular must reproduce every recorded
  // corpus verdict exactly (the strategy only changes how complements are
  // built, never the language they recognize).
  FaultInjector::disarm();
  for (const CorpusEntry &E : loadCorpusWithExpectations()) {
    Program Local = E.Prog;
    TerminationAnalyzer A(Local, modularChaosOptions());
    AnalysisResult R = A.run();
    EXPECT_EQ(R.V, E.Expected) << E.File << " under --complement modular";
  }
}

TEST(Chaos, ModularStrategyFaultsOnlyWeaken) {
  // The modular path's fault contract: seeds whose plan arms a site the
  // modular complement runs through -- each product expansion of the
  // difference, each NCSB successor -- may degrade a verdict to
  // UNKNOWN/TIMEOUT but never flip it.
  std::vector<CorpusEntry> Corpus = loadCorpusWithExpectations();
  ASSERT_FALSE(Corpus.empty());
  uint64_t Runs = 0, TotalFired = 0;
  for (uint64_t Seed = 1; Seed <= 4096 && Runs < 80; ++Seed) {
    FaultInjector::arm(Seed);
    bool ModularArmed =
        FaultInjector::plannedTrigger(FaultSite::DifferenceExpand) != 0 ||
        FaultInjector::plannedTrigger(FaultSite::NcsbSuccessor) != 0;
    FaultInjector::disarm();
    if (!ModularArmed)
      continue;
    ++Runs;
    const CorpusEntry &E = Corpus[Seed % Corpus.size()];
    uint64_t Fired = 0;
    ErrorOr<AnalysisResult> R =
        chaosRun(E.Prog, Seed, Fired, modularChaosOptions());
    TotalFired += Fired;
    if (R.ok())
      expectNoFlip(E, R.value().V, Seed);
  }
  EXPECT_EQ(Runs, 80u) << "seed scan exhausted before 80 armed plans";
  EXPECT_GT(TotalFired, 0u) << "no fault ever fired under modular chaos";
}

TEST(Chaos, SameSeedReproducesTheSameOutcome) {
  // The reproducibility promise: sequential chaos runs are functions of
  // (program, seed). Verdict, iteration count, and fired-fault count must
  // all match across a replay.
  std::vector<CorpusEntry> Corpus = loadCorpusWithExpectations();
  ASSERT_FALSE(Corpus.empty());
  for (uint64_t Seed = 101; Seed <= 116; ++Seed) {
    const CorpusEntry &E = Corpus[Seed % Corpus.size()];
    uint64_t FiredA = 0, FiredB = 0;
    ErrorOr<AnalysisResult> A = chaosRun(E.Prog, Seed, FiredA);
    ErrorOr<AnalysisResult> B = chaosRun(E.Prog, Seed, FiredB);
    EXPECT_EQ(FiredA, FiredB) << E.File << " seed " << Seed;
    ASSERT_EQ(A.ok(), B.ok()) << E.File << " seed " << Seed;
    if (A.ok()) {
      EXPECT_EQ(A.value().V, B.value().V) << E.File << " seed " << Seed;
      EXPECT_EQ(A.value().Stats.get("iterations"),
                B.value().Stats.get("iterations"))
          << E.File << " seed " << Seed;
    } else {
      EXPECT_EQ(A.error().kind(), B.error().kind())
          << E.File << " seed " << Seed;
    }
  }
}

TEST(Chaos, ThreadedPortfolioSurvivesFaultsAndNeverHangs) {
  // The threaded half of the contract: under injected faults the pool's
  // waitIdle must still return (RAII decrement), faulted entrants are
  // quarantined, and a conclusive race never flips the verdict. The test
  // finishing at all is the no-hang assertion.
  std::vector<CorpusEntry> Corpus = loadCorpusWithExpectations();
  ASSERT_FALSE(Corpus.empty());
  std::vector<PortfolioConfig> Configs = defaultPortfolio(PortfolioRosterSize);
  PortfolioOptions PO;
  PO.Jobs = 2;
  PO.TimeoutSeconds = 5;
  for (uint64_t Seed = 501; Seed <= 540; ++Seed) {
    const CorpusEntry &E = Corpus[Seed % Corpus.size()];
    ArmedScope Armed(Seed);
    PortfolioRunResult R = runPortfolio(E.Prog, Configs, PO);
    expectNoFlip(E, R.Result.V, Seed);
    if (R.FaultedEntrants != 0) {
      EXPECT_GE(R.Merged.get("portfolio.faulted"),
                static_cast<int64_t>(R.FaultedEntrants));
    }
  }
}

TEST(Chaos, ModularPortfolioEntrantsSurviveFaults) {
  // Same contract for the roster's modular-strategy entrants raced on
  // their own: quarantine on faults, no hangs, no flipped verdicts.
  std::vector<CorpusEntry> Corpus = loadCorpusWithExpectations();
  ASSERT_FALSE(Corpus.empty());
  std::vector<PortfolioConfig> Configs = defaultPortfolio(PortfolioRosterSize);
  std::erase_if(Configs, [](const PortfolioConfig &C) {
    return C.Opts.Complement != ComplementStrategy::Modular;
  });
  ASSERT_FALSE(Configs.empty());
  PortfolioOptions PO;
  PO.Jobs = 2;
  PO.TimeoutSeconds = 5;
  for (uint64_t Seed = 701; Seed <= 724; ++Seed) {
    const CorpusEntry &E = Corpus[Seed % Corpus.size()];
    ArmedScope Armed(Seed);
    PortfolioRunResult R = runPortfolio(E.Prog, Configs, PO);
    expectNoFlip(E, R.Result.V, Seed);
  }
}

TEST(Chaos, AllEntrantsFaultedStillReturnsUnknown) {
  // Single-entrant portfolio with a seed that makes the very first prover
  // call throw a FOREIGN exception (one the analyzer deliberately does not
  // contain): the only entrant is quarantined, no result slot is ever
  // filled, and the race must come back with UNKNOWN instead of
  // dereferencing an empty slot (the historical crash).
  std::vector<CorpusEntry> Corpus = loadCorpusWithExpectations();
  ASSERT_FALSE(Corpus.empty());
  std::vector<PortfolioConfig> Configs = defaultPortfolio(1);
  // Adding a fault site re-derives every seed's plan, so the scan range is
  // generous: 16384 seeds keep a qualifying plan in range across site-count
  // changes.
  for (uint64_t Seed = 0; Seed < 16384; ++Seed) {
    FaultInjector::arm(Seed);
    bool FirstHitForeign =
        FaultInjector::plannedTrigger(FaultSite::ProverEntry) == 1 &&
        (FaultInjector::plannedFlavor(FaultSite::ProverEntry) ==
             FaultFlavor::Foreign ||
         FaultInjector::plannedFlavor(FaultSite::ProverEntry) ==
             FaultFlavor::BadAlloc);
    FaultInjector::disarm();
    if (!FirstHitForeign)
      continue;
    for (size_t Jobs : {size_t(1), size_t(2)}) {
      PortfolioOptions PO;
      PO.Jobs = Jobs;
      PO.TimeoutSeconds = 5;
      ArmedScope Armed(Seed);
      PortfolioRunResult R = runPortfolio(Corpus[0].Prog, Configs, PO);
      EXPECT_EQ(R.FaultedEntrants, 1u) << "jobs " << Jobs;
      EXPECT_EQ(R.Result.V, Verdict::Unknown) << "jobs " << Jobs;
      EXPECT_EQ(R.WinnerName, "<all entrants faulted>") << "jobs " << Jobs;
      EXPECT_GE(R.Merged.get("portfolio.faulted"), 1) << "jobs " << Jobs;
    }
    return;
  }
  GTEST_SKIP() << "no seed with a foreign first-hit prover fault in range";
}

TEST(Chaos, ProverOverflowDegradesStageNotVerdict) {
  // Regression for the checked-arithmetic containment path: a seed whose
  // plan throws ArithmeticOverflow on the FIRST prover entry makes ranking
  // synthesis fail outright for one lasso. The analyzer must absorb it
  // (fault.contained.* counted), hand the lasso to the unknown-skip hunt,
  // and end inconclusively -- never with a flipped or fabricated verdict.
  ParseResult P = parseProgram(
      "program chaos_count(i) { while (i > 0) { i := i - 1; } }");
  ASSERT_TRUE(P.ok()) << P.Error;
  auto Containable = [](FaultSite S) {
    // Inactive, or an EngineError flavor the analyzer contains in-run (a
    // foreign throw would instead exit run() and belongs to the portfolio
    // quarantine tests).
    if (FaultInjector::plannedTrigger(S) == 0)
      return true;
    FaultFlavor F = FaultInjector::plannedFlavor(S);
    return F == FaultFlavor::Overflow || F == FaultFlavor::Exhausted ||
           F == FaultFlavor::Invariant;
  };
  for (uint64_t Seed = 0; Seed < 200000; ++Seed) {
    FaultInjector::arm(Seed);
    bool Wanted =
        FaultInjector::plannedTrigger(FaultSite::ProverEntry) == 1 &&
        FaultInjector::plannedFlavor(FaultSite::ProverEntry) ==
            FaultFlavor::Overflow &&
        Containable(FaultSite::RationalOp) &&
        Containable(FaultSite::DifferenceExpand) &&
        Containable(FaultSite::NcsbSuccessor);
    FaultInjector::disarm();
    if (!Wanted)
      continue;
    ArmedScope Armed(Seed);
    Program Local = *P.Prog;
    TerminationAnalyzer A(Local, chaosOptions());
    AnalysisResult R = A.run();
    EXPECT_GE(FaultInjector::firedCount(), 1u) << "seed " << Seed;
    EXPECT_GE(R.Stats.get("fault.contained.arithmetic_overflow"), 1)
        << "seed " << Seed;
    // The first lasso became unprovable, so Terminating is forfeit; but
    // the fault must not fabricate a nontermination proof either.
    EXPECT_NE(R.V, Verdict::Nonterminating) << "seed " << Seed;
    EXPECT_NE(R.V, Verdict::Terminating) << "seed " << Seed;
    return;
  }
  GTEST_SKIP() << "no overflow-first-prover seed in range";
}

//===----------------------------------------------------------------------===//
// Sandbox flavor: hard faults only process isolation can contain
//===----------------------------------------------------------------------===//

/// Submits one job to a sandboxed scheduler and returns its outcome.
server::JobOutcome sandboxedRun(const CorpusEntry &E, uint64_t Seed,
                                bool DisableQuarantine) {
  server::SchedulerConfig Cfg;
  Cfg.Isolation = server::IsolationMode::Sandbox;
  // The backoff only slows the suite down here.
  Cfg.SandboxCfg.RetryBackoffSeconds = 0.001;
  if (DisableQuarantine)
    Cfg.SandboxCfg.QuarantineThreshold = 0;
  server::Scheduler S(Cfg);
  std::mutex M;
  server::JobOutcome Out;
  bool Have = false;
  server::JobSpec Spec;
  Spec.Id = "chaos" + std::to_string(Seed);
  {
    // Re-serialize the parsed program? The corpus loader kept only the
    // Program; read the file back instead for the wire payload.
    std::ifstream In(std::string(TERMCHECK_CORPUS_DIR) + "/" + E.File +
                     ".while");
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Spec.ProgramText = Buf.str();
  }
  Spec.Opts.TimeoutSeconds = 5;
  ArmedScope Armed(Seed);
  EXPECT_EQ(S.submit(Spec,
                     [&](server::JobOutcome O) {
                       std::lock_guard<std::mutex> Lock(M);
                       Out = std::move(O);
                       Have = true;
                     }),
            server::Scheduler::Admission::Accepted);
  S.awaitIdle();
  EXPECT_TRUE(Have) << "sandboxed job never completed (seed " << Seed << ")";
  return Out;
}

TEST(Chaos, SandboxEntryFaultsAreContainedByProcessIsolation) {
  // Seeds whose plan makes the SandboxEntry site fire on the worker's very
  // first (and only) hit: every forked worker dies at entry to a real
  // SIGSEGV/abort/allocation bomb. The contract is that the daemon-side
  // scheduler survives with a structured worker_* outcome, never crashing
  // and never fabricating a verdict.
  if (!server::sandboxSupported())
    GTEST_SKIP() << "fork isolation unavailable";
  std::vector<CorpusEntry> Corpus = loadCorpusWithExpectations();
  ASSERT_FALSE(Corpus.empty());
  uint64_t Runs = 0;
  for (uint64_t Seed = 1; Seed <= 16384 && Runs < 10; ++Seed) {
    FaultInjector::arm(Seed);
    bool EntryFault =
        FaultInjector::plannedTrigger(FaultSite::SandboxEntry) == 1;
    FaultInjector::disarm();
    if (!EntryFault)
      continue;
    ++Runs;
    const CorpusEntry &E = Corpus[Seed % Corpus.size()];
    server::JobOutcome O =
        sandboxedRun(E, Seed, /*DisableQuarantine=*/true);
    EXPECT_TRUE(O.Status == server::JobStatus::WorkerCrashed ||
                O.Status == server::JobStatus::WorkerOom)
        << "seed " << Seed << ": status "
        << server::jobStatusName(O.Status);
    EXPECT_EQ(O.Result.V, Verdict::Unknown) << "seed " << Seed;
    EXPECT_GE(O.Attempts, 1u);
  }
  EXPECT_EQ(Runs, 10u) << "seed scan exhausted before 10 entry-fault plans";

  // And the process that just absorbed 10 waves of dead workers still
  // analyzes correctly.
  FaultInjector::disarm();
  server::JobOutcome O = sandboxedRun(Corpus[0], 0, false);
  EXPECT_EQ(O.Status, server::JobStatus::Finished);
  expectNoFlip(Corpus[0], O.Result.V, 0);
}

TEST(Chaos, SandboxedInChildFaultsOnlyWeakenVerdicts) {
  // Seeds whose plan leaves SandboxEntry quiet: the inherited plan fires
  // inside the child's analysis instead, where the engine-level
  // containment (or the child's catch-all exit codes) absorbs it. Either
  // way the parent must see a structured outcome whose verdict only ever
  // weakens relative to the recorded expectation.
  if (!server::sandboxSupported())
    GTEST_SKIP() << "fork isolation unavailable";
  std::vector<CorpusEntry> Corpus = loadCorpusWithExpectations();
  ASSERT_FALSE(Corpus.empty());
  uint64_t Runs = 0, Concluded = 0;
  for (uint64_t Seed = 1; Seed <= 16384 && Runs < 10; ++Seed) {
    FaultInjector::arm(Seed);
    bool EntryQuiet =
        FaultInjector::plannedTrigger(FaultSite::SandboxEntry) != 1;
    FaultInjector::disarm();
    if (!EntryQuiet)
      continue;
    ++Runs;
    const CorpusEntry &E = Corpus[Seed % Corpus.size()];
    server::JobOutcome O =
        sandboxedRun(E, Seed, /*DisableQuarantine=*/true);
    if (O.Status == server::JobStatus::Finished) {
      expectNoFlip(E, O.Result.V, Seed);
      if (isConclusive(O.Result.V))
        ++Concluded;
    } else {
      // A bad_alloc landing outside the containment scope exits the child
      // through its catch-all; that is a weakening, not a flip.
      EXPECT_EQ(O.Result.V, Verdict::Unknown) << "seed " << Seed;
    }
  }
  EXPECT_EQ(Runs, 10u);
  EXPECT_GT(Concluded, 0u)
      << "every in-child faulted run degraded; containment suspect";
}

TEST(Chaos, ResourceGuardEndsRunsInsteadOfExploding) {
  // A brutally tight global budget: every subtraction aborts as capped,
  // word-only fallbacks barely fit, and the run must end with a normal
  // verdict (often TIMEOUT with resource.exhausted) rather than OOM.
  FaultInjector::disarm();
  std::vector<CorpusEntry> Corpus = loadCorpusWithExpectations();
  ASSERT_FALSE(Corpus.empty());
  for (size_t I = 0; I < Corpus.size(); ++I) {
    ResourceGuard::Limits L;
    L.MaxStates = 40;
    ResourceGuard G(L);
    AnalyzerOptions Opts = chaosOptions();
    Opts.Guard = &G;
    Program Local = Corpus[I].Prog;
    TerminationAnalyzer A(Local, Opts);
    AnalysisResult R = A.run();
    expectNoFlip(Corpus[I], R.V, 0);
    if (R.Stats.get("resource.exhausted") != 0) {
      EXPECT_EQ(R.V, Verdict::Timeout) << Corpus[I].File;
    }
  }
}

} // namespace
