//===- tests/server_sandbox_test.cpp - Worker isolation gate --------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The process-isolation acceptance gate for termcheckd (DESIGN.md
/// section 15):
///
///  * a sandboxed job whose worker dies to SIGSEGV yields a structured
///    worker_crashed outcome (UNKNOWN verdict, attempt count, quarantine
///    evidence) while the scheduler survives;
///  * a worker that burns past its RLIMIT_CPU budget yields
///    worker_cpu_exceeded with a TIMEOUT verdict;
///  * a worker that ignores SIGTERM and hangs past the deadline is
///    SIGKILLed and reported as deadline_exceeded;
///  * concurrent healthy jobs sharing the scheduler with the faulting
///    ones finish with verdicts identical to in-process runs;
///  * the deterministic byte-identity guarantee survives the process
///    boundary: a --jobs 1 deterministic submission produces a report
///    byte-identical to the in-process CLI path in BOTH isolation modes;
///  * a first-attempt-only crash is retried once and then finishes;
///  * a crash-looping program shape is quarantined and later submissions
///    short-circuit to UNKNOWN without spawning a worker;
///  * the health snapshot counts all of the above.
///
/// Assertions are phrased in terms of status names, never raw signal
/// numbers: sanitizer runtimes intercept hard faults and turn them into
/// nonzero exits, which classify as Crashed all the same.
///
//===----------------------------------------------------------------------===//

#include "program/Parser.h"
#include "server/Scheduler.h"
#include "server/Supervisor.h"
#include "termination/Portfolio.h"
#include "termination/RunReport.h"

#include "gtest/gtest.h"

#include <map>
#include <mutex>
#include <sstream>

using namespace termcheck;
using namespace termcheck::server;

namespace {

constexpr const char *FastProgram =
    "program fast(i) { while (i > 0) { i := i - 1; } }";
/// Refines forever with the recurrence prover off (the parity_trap shape):
/// burns CPU until some budget stops it.
constexpr const char *SlowSource =
    "program slow(i) { while (i != 0) { i := i - 2; } }";

JobSpec fastJob(const std::string &Id) {
  JobSpec S;
  S.Id = Id;
  S.ProgramText = FastProgram;
  S.Opts.TimeoutSeconds = 20;
  return S;
}

JobSpec faultJob(const std::string &Id, const std::string &Fault) {
  JobSpec S = fastJob(Id);
  S.Opts.TestFault = Fault;
  return S;
}

struct Outcomes {
  std::mutex M;
  std::map<std::string, JobOutcome> ById;
  Scheduler::CompletionFn fn() {
    return [this](JobOutcome O) {
      std::lock_guard<std::mutex> Lock(M);
      ById.emplace(O.Id, std::move(O));
    };
  }
  JobOutcome get(const std::string &Id) {
    std::lock_guard<std::mutex> Lock(M);
    auto It = ById.find(Id);
    EXPECT_NE(It, ById.end()) << "no outcome for " << Id;
    return It == ById.end() ? JobOutcome() : It->second;
  }
};

SchedulerConfig sandboxConfig() {
  SchedulerConfig Cfg;
  Cfg.MaxActiveJobs = 4;
  Cfg.Isolation = IsolationMode::Sandbox;
  return Cfg;
}

#define REQUIRE_SANDBOX()                                                    \
  if (!sandboxSupported())                                                   \
  GTEST_SKIP() << "fork/rlimit isolation unavailable on this platform"

//===----------------------------------------------------------------------===//
// Crash containment
//===----------------------------------------------------------------------===//

TEST(SandboxCrash, SegvYieldsStructuredOutcomeAndDaemonSurvives) {
  REQUIRE_SANDBOX();
  SchedulerConfig Cfg = sandboxConfig();
  Scheduler S(Cfg);
  Outcomes Got;
  ASSERT_EQ(S.submit(faultJob("crash", "segv"), Got.fn()),
            Scheduler::Admission::Accepted);
  S.awaitIdle();

  JobOutcome O = Got.get("crash");
  EXPECT_EQ(O.Status, JobStatus::WorkerCrashed);
  EXPECT_TRUE(O.Sandboxed);
  EXPECT_EQ(O.Attempts, 2u) << "a crash is retried exactly once";
  EXPECT_EQ(O.Result.V, Verdict::Unknown);
  EXPECT_FALSE(O.Diagnostic.empty());
  EXPECT_EQ(S.stats().WorkerCrashed, 1u);

  // The scheduler itself is unharmed: a healthy job still completes.
  // (Different program text -- the crashed job's shape is now quarantined.)
  JobSpec After = fastJob("after");
  After.ProgramText = "program ok(k) { while (k > 0) { k := k - 1; } }";
  ASSERT_EQ(S.submit(After, Got.fn()), Scheduler::Admission::Accepted);
  S.awaitIdle();
  EXPECT_EQ(Got.get("after").Status, JobStatus::Finished);
  EXPECT_EQ(Got.get("after").Result.V, Verdict::Terminating);
}

TEST(SandboxCrash, AbortClassifiesAsCrashToo) {
  REQUIRE_SANDBOX();
  SchedulerConfig Cfg = sandboxConfig();
  Cfg.SandboxCfg.MaxRetries = 0; // one attempt is enough for this check
  Scheduler S(Cfg);
  Outcomes Got;
  ASSERT_EQ(S.submit(faultJob("ab", "abort"), Got.fn()),
            Scheduler::Admission::Accepted);
  S.awaitIdle();
  JobOutcome O = Got.get("ab");
  EXPECT_EQ(O.Status, JobStatus::WorkerCrashed);
  EXPECT_EQ(O.Attempts, 1u);
}

TEST(SandboxCrash, AllocationExhaustionClassifiesAsOom) {
  REQUIRE_SANDBOX();
  SchedulerConfig Cfg = sandboxConfig();
  Cfg.SandboxCfg.MaxRetries = 0;
  Scheduler S(Cfg);
  Outcomes Got;
  ASSERT_EQ(S.submit(faultJob("oom", "oom"), Got.fn()),
            Scheduler::Admission::Accepted);
  S.awaitIdle();
  JobOutcome O = Got.get("oom");
  EXPECT_EQ(O.Status, JobStatus::WorkerOom);
  EXPECT_EQ(O.Result.V, Verdict::Unknown);
  EXPECT_EQ(S.stats().WorkerOom, 1u);
}

TEST(SandboxCrash, ResultLineCarriesSandboxEvidence) {
  REQUIRE_SANDBOX();
  SchedulerConfig Cfg = sandboxConfig();
  Scheduler S(Cfg);
  Outcomes Got;
  ASSERT_EQ(S.submit(faultJob("line", "segv"), Got.fn()),
            Scheduler::Admission::Accepted);
  S.awaitIdle();
  std::string Line = resultLine(Got.get("line"));
  EXPECT_NE(Line.find("\"status\":\"worker_crashed\""), std::string::npos)
      << Line;
  EXPECT_NE(Line.find("\"sandbox\":{\"attempts\":2"), std::string::npos)
      << Line;
}

//===----------------------------------------------------------------------===//
// OS budgets and hang supervision
//===----------------------------------------------------------------------===//

TEST(SandboxBudget, CpuLimitFiresBeforeTheWallClockBudget) {
  REQUIRE_SANDBOX();
  SchedulerConfig Cfg = sandboxConfig();
  Cfg.SandboxCfg.CpuLimitSeconds = 1; // RLIMIT_CPU fires long before...
  Cfg.SandboxCfg.MaxRetries = 0;
  Scheduler S(Cfg);
  Outcomes Got;
  JobSpec Spin;
  Spin.Id = "spin";
  Spin.ProgramText = SlowSource;
  Spin.Opts.TimeoutSeconds = 60; // ...the in-child analysis budget
  Spin.Opts.NoNonterm = true;
  ASSERT_EQ(S.submit(Spin, Got.fn()), Scheduler::Admission::Accepted);
  S.awaitIdle();

  JobOutcome O = Got.get("spin");
  EXPECT_EQ(O.Status, JobStatus::WorkerCpuExceeded);
  EXPECT_EQ(O.Result.V, Verdict::Timeout);
  EXPECT_EQ(O.Attempts, 1u) << "resource exhaustion is not retried";
  EXPECT_FALSE(O.Quarantined) << "budget overruns never quarantine";
  EXPECT_EQ(S.stats().WorkerCpuExceeded, 1u);
}

TEST(SandboxHang, SigtermImmuneWorkerIsKilledAndReportedAsDeadline) {
  REQUIRE_SANDBOX();
  SchedulerConfig Cfg = sandboxConfig();
  Cfg.SandboxCfg.HangGraceSeconds = 0.3;
  Cfg.SandboxCfg.TermGraceSeconds = 0.2;
  Cfg.SandboxCfg.MaxRetries = 0;
  Scheduler S(Cfg);
  Outcomes Got;
  JobSpec Hang = faultJob("hang", "hang"); // ignores SIGTERM, pauses forever
  Hang.Opts.TimeoutSeconds = 0.2;
  ASSERT_EQ(S.submit(Hang, Got.fn()), Scheduler::Admission::Accepted);
  S.awaitIdle();

  JobOutcome O = Got.get("hang");
  EXPECT_EQ(O.Status, JobStatus::DeadlineExceeded);
  EXPECT_TRUE(O.Sandboxed);
  EXPECT_FALSE(O.Diagnostic.empty());
}

//===----------------------------------------------------------------------===//
// Retry and quarantine policy
//===----------------------------------------------------------------------===//

TEST(SandboxRetry, FirstAttemptCrashIsRetriedToSuccess) {
  REQUIRE_SANDBOX();
  SchedulerConfig Cfg = sandboxConfig();
  Scheduler S(Cfg);
  Outcomes Got;
  ASSERT_EQ(S.submit(faultJob("flaky", "segv_first"), Got.fn()),
            Scheduler::Admission::Accepted);
  S.awaitIdle();

  JobOutcome O = Got.get("flaky");
  EXPECT_EQ(O.Status, JobStatus::Finished);
  EXPECT_EQ(O.Attempts, 2u);
  EXPECT_EQ(O.Result.V, Verdict::Terminating)
      << "the retried attempt produced the real verdict";
}

TEST(SandboxQuarantine, CrashLoopShortCircuitsLaterSubmissions) {
  REQUIRE_SANDBOX();
  SchedulerConfig Cfg = sandboxConfig();
  // Default threshold 2: one job's two crashing attempts reach it.
  Scheduler S(Cfg);
  Outcomes Got;
  ASSERT_EQ(S.submit(faultJob("first", "segv"), Got.fn()),
            Scheduler::Admission::Accepted);
  S.awaitIdle();
  EXPECT_EQ(Got.get("first").Status, JobStatus::WorkerCrashed);
  EXPECT_TRUE(Got.get("first").Quarantined);

  // Same program text (modulo whitespace -- the shape hash collapses it):
  // the quarantine answers without forking anything.
  JobSpec Again = faultJob("again", "segv");
  Again.ProgramText =
      "program  fast(i)  {  while (i > 0) { i := i - 1; } }";
  uint64_t SpawnedBefore = S.health().Sandbox.Spawned;
  ASSERT_EQ(S.submit(Again, Got.fn()), Scheduler::Admission::Accepted);
  S.awaitIdle();

  JobOutcome O = Got.get("again");
  EXPECT_EQ(O.Status, JobStatus::Finished);
  EXPECT_TRUE(O.Quarantined);
  EXPECT_EQ(O.Attempts, 0u);
  EXPECT_EQ(O.Result.V, Verdict::Unknown);
  EXPECT_NE(O.Diagnostic.find("quarantined"), std::string::npos);
  EXPECT_EQ(S.health().Sandbox.Spawned, SpawnedBefore)
      << "a quarantine short-circuit spawns no worker";
  EXPECT_EQ(S.health().Sandbox.QuarantineShortCircuits, 1u);
}

//===----------------------------------------------------------------------===//
// Healthy jobs next to faulting ones
//===----------------------------------------------------------------------===//

TEST(SandboxConcurrency, HealthyVerdictsMatchInProcessRuns) {
  REQUIRE_SANDBOX();
  std::vector<std::string> Sources = {
      FastProgram,
      "program nest(i) {\n  while (i > 0) {\n    j := i;\n"
      "    while (j > 0) { j := j - 1; }\n    i := i - 1;\n  }\n}",
      "program up(i) { while (i > 0) { i := i + 2; } }",
  };

  // In-process reference verdicts.
  std::map<std::string, Verdict> Reference;
  {
    SchedulerConfig Cfg;
    Scheduler S(Cfg);
    Outcomes Got;
    for (size_t I = 0; I < Sources.size(); ++I) {
      JobSpec J = fastJob("h" + std::to_string(I));
      J.ProgramText = Sources[I];
      ASSERT_EQ(S.submit(J, Got.fn()), Scheduler::Admission::Accepted);
    }
    S.awaitIdle();
    for (size_t I = 0; I < Sources.size(); ++I) {
      JobOutcome O = Got.get("h" + std::to_string(I));
      EXPECT_EQ(O.Status, JobStatus::Finished);
      EXPECT_FALSE(O.Sandboxed);
      Reference[O.Id] = O.Result.V;
    }
  }

  // Sandboxed pass, interleaved with crashing jobs on the same scheduler.
  SchedulerConfig Cfg = sandboxConfig();
  Cfg.SandboxCfg.QuarantineThreshold = 0; // never quarantine here
  Scheduler S(Cfg);
  Outcomes Got;
  for (size_t I = 0; I < Sources.size(); ++I) {
    JobSpec J = fastJob("h" + std::to_string(I));
    J.ProgramText = Sources[I];
    ASSERT_EQ(S.submit(J, Got.fn()), Scheduler::Admission::Accepted);
    ASSERT_EQ(S.submit(faultJob("c" + std::to_string(I), "segv"), Got.fn()),
              Scheduler::Admission::Accepted);
  }
  S.awaitIdle();
  for (size_t I = 0; I < Sources.size(); ++I) {
    JobOutcome O = Got.get("h" + std::to_string(I));
    EXPECT_EQ(O.Status, JobStatus::Finished);
    EXPECT_TRUE(O.Sandboxed);
    EXPECT_EQ(O.Result.V, Reference[O.Id])
        << "sandboxing must not change verdicts";
    EXPECT_EQ(Got.get("c" + std::to_string(I)).Status,
              JobStatus::WorkerCrashed);
  }
}

//===----------------------------------------------------------------------===//
// Byte-identity across the process boundary
//===----------------------------------------------------------------------===//

JobSpec deterministicJob(const std::string &Id, const std::string &Source) {
  JobSpec S;
  S.Id = Id;
  S.ProgramText = Source;
  S.Opts.TimeoutSeconds = 30;
  S.Opts.PortfolioK = PortfolioRosterSize;
  S.Opts.Deterministic = true;
  return S;
}

std::string cliReferenceReport(const std::string &Source,
                               double TimeoutSeconds) {
  ParseResult PR = parseProgram(Source);
  EXPECT_TRUE(PR.ok());
  PortfolioOptions PO;
  PO.Jobs = 1;
  PO.TimeoutSeconds = TimeoutSeconds;
  PortfolioRunResult R =
      runPortfolio(*PR.Prog, defaultPortfolio(PortfolioRosterSize), PO);
  AnalysisResult Result = std::move(R.Result);
  Result.Seconds = R.Seconds;
  RunReportInput In;
  In.ProgramName = PR.Prog->name();
  In.Result = &Result;
  In.Portfolio = &R;
  In.Jobs = 1;
  In.TimeoutSeconds = TimeoutSeconds;
  RunReportOptions RO;
  RO.Deterministic = true;
  std::ostringstream OS;
  writeRunReport(OS, In, RO);
  return OS.str();
}

TEST(SandboxDeterminism, ReportsAreByteIdenticalInBothIsolationModes) {
  REQUIRE_SANDBOX();
  std::string Reference = cliReferenceReport(FastProgram, 30);
  ASSERT_FALSE(Reference.empty());

  for (IsolationMode Mode :
       {IsolationMode::InProcess, IsolationMode::Sandbox}) {
    SchedulerConfig Cfg;
    Cfg.Isolation = Mode;
    Scheduler S(Cfg);
    Outcomes Got;
    ASSERT_EQ(S.submit(deterministicJob("det", FastProgram), Got.fn()),
              Scheduler::Admission::Accepted);
    S.awaitIdle();
    JobOutcome O = Got.get("det");
    EXPECT_EQ(O.Status, JobStatus::Finished);
    EXPECT_EQ(O.Sandboxed, Mode == IsolationMode::Sandbox);
    std::ostringstream OS;
    writeOutcomeReport(OS, O);
    EXPECT_EQ(OS.str(), Reference)
        << "isolation mode " << isolationModeName(Mode);
  }
}

TEST(SandboxDeterminism, AutoModeKeepsDeterministicJobsInProcess) {
  REQUIRE_SANDBOX();
  SchedulerConfig Cfg;
  Cfg.Isolation = IsolationMode::Auto;
  Scheduler S(Cfg);
  Outcomes Got;
  ASSERT_EQ(S.submit(deterministicJob("det", FastProgram), Got.fn()),
            Scheduler::Admission::Accepted);
  ASSERT_EQ(S.submit(fastJob("plain"), Got.fn()),
            Scheduler::Admission::Accepted);
  S.awaitIdle();
  EXPECT_FALSE(Got.get("det").Sandboxed)
      << "Auto pins deterministic jobs to the in-process path";
  EXPECT_TRUE(Got.get("plain").Sandboxed)
      << "Auto sandboxes non-deterministic jobs";
  EXPECT_EQ(Got.get("plain").Result.V, Verdict::Terminating);
}

//===----------------------------------------------------------------------===//
// Health snapshot
//===----------------------------------------------------------------------===//

TEST(SandboxRetry, BackoffJitterSpreadsJobIdsAndAttempts) {
  // Regression: the jitter used to run job IDs through programShapeHash,
  // whose whitespace collapsing is right for program TEXT but wrong for
  // IDs -- "job 1" and "job  1" (or any IDs differing only in blanks)
  // retried in lockstep, defeating the thundering-herd spread.
  const double Base = 0.05;
  double A = retryBackoffJitter(Base, "job 1", 1);
  double B = retryBackoffJitter(Base, "job  1", 1);
  EXPECT_NE(A, B) << "ids differing only in whitespace must jitter apart";

  // Same (id, attempt) stays deterministic; later attempts move.
  EXPECT_EQ(A, retryBackoffJitter(Base, "job 1", 1));
  EXPECT_NE(A, retryBackoffJitter(Base, "job 1", 2));

  // The jitter stays inside the documented [Base, 2*Base) envelope.
  for (uint32_t Attempt = 1; Attempt <= 8; ++Attempt) {
    double D = retryBackoffJitter(Base, "some-job", Attempt);
    EXPECT_GE(D, Base);
    EXPECT_LT(D, 2 * Base);
  }
}

TEST(SandboxHealthTest, SnapshotCountsTheFleet) {
  REQUIRE_SANDBOX();
  SchedulerConfig Cfg = sandboxConfig();
  Scheduler S(Cfg);
  Outcomes Got;
  ASSERT_EQ(S.submit(fastJob("ok"), Got.fn()),
            Scheduler::Admission::Accepted);
  ASSERT_EQ(S.submit(faultJob("bad", "segv"), Got.fn()),
            Scheduler::Admission::Accepted);
  S.awaitIdle();

  HealthInfo H = S.health();
  EXPECT_EQ(H.Isolation, IsolationMode::Sandbox);
  EXPECT_EQ(H.Sandbox.ActiveWorkers, 0u);
  EXPECT_EQ(H.Sandbox.Spawned, 3u) << "one healthy + two crash attempts";
  EXPECT_EQ(H.Sandbox.Crashed, 2u);
  EXPECT_EQ(H.Sandbox.Retries, 1u);
  EXPECT_EQ(H.Sandbox.QuarantineSize, 1u);

  std::string Line = healthLine(H);
  for (const char *Key :
       {"\"type\":\"health\"", "\"queue_depth\"", "\"active_jobs\"",
        "\"workers\"", "\"isolation\":\"sandbox\"", "\"sandbox\":{",
        "\"spawned\":3", "\"crashed\":2", "\"quarantine_size\":1"})
    EXPECT_NE(Line.find(Key), std::string::npos) << Key << " in " << Line;
}

} // namespace
