//===- tests/server_scheduler_test.cpp - Job scheduler gate ---------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The scheduling gate for termcheckd (DESIGN.md section 14):
///
///  * admission control -- queue_full at the bound, duplicate ids, and
///    rejection (never silent dropping) while draining;
///  * graceful vs hard drain -- graceful completes every accepted job,
///    hard cancels queued jobs and unwinds running ones;
///  * explicit cancel of queued and active jobs;
///  * the determinism acceptance gate: a deterministic job's standalone
///    report is byte-identical to the in-process `termcheck --jobs 1`
///    equivalent, and byte-identical whether the scheduler ran it alone
///    or under full concurrent load.
///
//===----------------------------------------------------------------------===//

#include "program/Parser.h"
#include "server/Scheduler.h"
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
/// With the recurrence prover off this diverges-from-odd-inputs loop
/// (the benchmarks/parity_trap.while shape) refines until the budget or a
/// cancellation poll stops it. Holds an active slot reliably.
constexpr const char *SlowSource =
    "program slow(i) { while (i != 0) { i := i - 2; } }";

JobSpec slowJob(const std::string &Id, double TimeoutSeconds = 20) {
  JobSpec S;
  S.Id = Id;
  S.ProgramText = SlowSource;
  S.Opts.TimeoutSeconds = TimeoutSeconds;
  S.Opts.NoNonterm = true;
  return S;
}

JobSpec fastJob(const std::string &Id) {
  JobSpec S;
  S.Id = Id;
  S.ProgramText = FastProgram;
  S.Opts.TimeoutSeconds = 20;
  return S;
}

/// Thread-safe outcome collector.
struct Outcomes {
  std::mutex M;
  std::map<std::string, JobOutcome> ById;
  Scheduler::CompletionFn fn() {
    return [this](JobOutcome O) {
      std::lock_guard<std::mutex> Lock(M);
      ById.emplace(O.Id, std::move(O));
    };
  }
  JobStatus statusOf(const std::string &Id) {
    std::lock_guard<std::mutex> Lock(M);
    auto It = ById.find(Id);
    EXPECT_NE(It, ById.end()) << "no outcome for " << Id;
    return It == ById.end() ? JobStatus::Finished : It->second.Status;
  }
  size_t count() {
    std::lock_guard<std::mutex> Lock(M);
    return ById.size();
  }
};

TEST(SchedulerAdmission, QueueFullAtTheBound) {
  SchedulerConfig Cfg;
  Cfg.MaxActiveJobs = 1;
  Cfg.QueueCapacity = 1;
  Scheduler S(Cfg);
  Outcomes Got;

  // One active slot-holder, one queued job, then the bound.
  EXPECT_EQ(S.submit(slowJob("hold"), Got.fn()), Scheduler::Admission::Accepted);
  EXPECT_EQ(S.submit(fastJob("q1"), Got.fn()), Scheduler::Admission::Accepted);
  EXPECT_EQ(S.submit(fastJob("q2"), Got.fn()),
            Scheduler::Admission::QueueFull);
  EXPECT_EQ(S.submit(fastJob("q3"), Got.fn()),
            Scheduler::Admission::QueueFull);
  EXPECT_EQ(S.stats().RejectedQueueFull, 2u);
  EXPECT_EQ(S.stats().Accepted, 2u);

  S.beginDrain(/*Hard=*/true);
  S.awaitIdle();
  // Rejected jobs never complete; accepted ones always do.
  EXPECT_EQ(Got.count(), 2u);
}

TEST(SchedulerAdmission, DuplicateIdThenReuseAfterCompletion) {
  SchedulerConfig Cfg;
  Scheduler S(Cfg);
  Outcomes Got;
  EXPECT_EQ(S.submit(fastJob("a"), Got.fn()), Scheduler::Admission::Accepted);
  EXPECT_EQ(S.submit(fastJob("a"), Got.fn()),
            Scheduler::Admission::DuplicateId);
  S.awaitIdle();
  EXPECT_EQ(S.submit(fastJob("a"), Got.fn()), Scheduler::Admission::Accepted);
  S.awaitIdle();
  EXPECT_EQ(S.stats().RejectedDuplicateId, 1u);
  EXPECT_EQ(S.stats().Completed, 2u);
}

TEST(SchedulerDrain, GracefulCompletesEverythingAccepted) {
  SchedulerConfig Cfg;
  Cfg.MaxActiveJobs = 2;
  Scheduler S(Cfg);
  Outcomes Got;
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(S.submit(fastJob("g" + std::to_string(I)), Got.fn()),
              Scheduler::Admission::Accepted);
  S.beginDrain(/*Hard=*/false);
  EXPECT_TRUE(S.draining());
  EXPECT_EQ(S.submit(fastJob("late"), Got.fn()),
            Scheduler::Admission::Draining);
  S.awaitIdle();
  EXPECT_EQ(Got.count(), 8u);
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Got.statusOf("g" + std::to_string(I)), JobStatus::Finished);
  EXPECT_EQ(S.stats().RejectedDraining, 1u);
  EXPECT_EQ(S.stats().Terminating, 8u);
}

TEST(SchedulerDrain, HardCancelsQueuedAndUnwindsRunning) {
  SchedulerConfig Cfg;
  Cfg.MaxActiveJobs = 1;
  Cfg.QueueCapacity = 8;
  Scheduler S(Cfg);
  Outcomes Got;
  ASSERT_EQ(S.submit(slowJob("run"), Got.fn()),
            Scheduler::Admission::Accepted);
  ASSERT_EQ(S.submit(fastJob("wait1"), Got.fn()),
            Scheduler::Admission::Accepted);
  ASSERT_EQ(S.submit(fastJob("wait2"), Got.fn()),
            Scheduler::Admission::Accepted);
  S.beginDrain(/*Hard=*/true);
  S.awaitIdle(); // returns long before the 20 s budget: cancellation works
  EXPECT_EQ(Got.count(), 3u);
  EXPECT_EQ(Got.statusOf("wait1"), JobStatus::Cancelled);
  EXPECT_EQ(Got.statusOf("wait2"), JobStatus::Cancelled);
  EXPECT_EQ(Got.statusOf("run"), JobStatus::Cancelled);
}

TEST(SchedulerCancel, QueuedAndActiveAndUnknown) {
  SchedulerConfig Cfg;
  Cfg.MaxActiveJobs = 1;
  Scheduler S(Cfg);
  Outcomes Got;
  ASSERT_EQ(S.submit(slowJob("active"), Got.fn()),
            Scheduler::Admission::Accepted);
  ASSERT_EQ(S.submit(fastJob("queued"), Got.fn()),
            Scheduler::Admission::Accepted);
  EXPECT_FALSE(S.cancel("ghost"));
  EXPECT_TRUE(S.cancel("queued"));
  EXPECT_TRUE(S.cancel("active"));
  S.awaitIdle();
  EXPECT_EQ(Got.statusOf("queued"), JobStatus::Cancelled);
  EXPECT_EQ(Got.statusOf("active"), JobStatus::Cancelled);
  EXPECT_EQ(S.stats().Cancelled, 2u);
}

//===----------------------------------------------------------------------===//
// Determinism acceptance gate
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

/// The CLI-equivalent report: `termcheck --portfolio 3 --jobs 1
/// --stats-json - --stats-deterministic` in process.
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

std::string outcomeReport(Outcomes &Got, const std::string &Id) {
  std::lock_guard<std::mutex> Lock(Got.M);
  auto It = Got.ById.find(Id);
  EXPECT_NE(It, Got.ById.end());
  if (It == Got.ById.end())
    return "";
  std::ostringstream OS;
  writeOutcomeReport(OS, It->second);
  return OS.str();
}

TEST(SchedulerDeterminism, ReportMatchesInProcessCliPath) {
  SchedulerConfig Cfg;
  Scheduler S(Cfg);
  Outcomes Got;
  ASSERT_EQ(S.submit(deterministicJob("det", FastProgram), Got.fn()),
            Scheduler::Admission::Accepted);
  S.awaitIdle();
  std::string ViaServer = outcomeReport(Got, "det");
  std::string ViaCli = cliReferenceReport(FastProgram, 30);
  EXPECT_FALSE(ViaServer.empty());
  EXPECT_EQ(ViaServer, ViaCli);
}

TEST(SchedulerDeterminism, ConcurrentLoadDoesNotPerturbReports) {
  // The acceptance gate: run the same deterministic jobs alone (--jobs 1
  // server, nothing else running) and under a saturated concurrent
  // scheduler; every report must be byte-identical.
  std::vector<std::string> Sources = {
      FastProgram,
      "program nest(i) {\n  while (i > 0) {\n    j := i;\n"
      "    while (j > 0) { j := j - 1; }\n    i := i - 1;\n  }\n}",
      "program up(i) { while (i > 0) { i := i + 2; } }",
      "program br(i) { while (i > 0) { either { i := i - 1; } or "
      "{ i := i - 2; } } }",
  };

  // Reference pass: one job at a time.
  std::map<std::string, std::string> Reference;
  {
    SchedulerConfig Cfg;
    Cfg.MaxActiveJobs = 1;
    Scheduler S(Cfg);
    for (size_t I = 0; I < Sources.size(); ++I) {
      Outcomes Got;
      std::string Id = "r" + std::to_string(I);
      ASSERT_EQ(S.submit(deterministicJob(Id, Sources[I]), Got.fn()),
                Scheduler::Admission::Accepted);
      S.awaitIdle();
      Reference[Id] = outcomeReport(Got, Id);
      EXPECT_FALSE(Reference[Id].empty());
    }
  }

  // Load pass: everything at once on a wide scheduler, repeated thrice
  // with distinct interleavings.
  for (int Round = 0; Round < 3; ++Round) {
    SchedulerConfig Cfg;
    Cfg.MaxActiveJobs = 4;
    Scheduler S(Cfg);
    Outcomes Got;
    for (size_t I = 0; I < Sources.size(); ++I)
      ASSERT_EQ(
          S.submit(deterministicJob("r" + std::to_string(I), Sources[I]),
                   Got.fn()),
          Scheduler::Admission::Accepted);
    S.awaitIdle();
    for (size_t I = 0; I < Sources.size(); ++I) {
      std::string Id = "r" + std::to_string(I);
      EXPECT_EQ(outcomeReport(Got, Id), Reference[Id])
          << "round " << Round << " job " << Id;
    }
  }
}

TEST(SchedulerStatsTest, CountersAddUp) {
  SchedulerConfig Cfg;
  Scheduler S(Cfg);
  Outcomes Got;
  S.submit(fastJob("t1"), Got.fn());
  S.submit(fastJob("t2"), Got.fn());
  JobSpec Bad = fastJob("bad");
  Bad.ProgramText = "syntax error";
  S.submit(Bad, Got.fn());
  S.awaitIdle();
  SchedulerStats St = S.stats();
  EXPECT_EQ(St.Accepted, 3u);
  EXPECT_EQ(St.Completed, 3u);
  EXPECT_EQ(St.Terminating, 2u);
  EXPECT_EQ(St.ParseErrors, 1u);
  EXPECT_EQ(St.QueueDepth, 0u);
  EXPECT_EQ(St.ActiveJobs, 0u);
  // The pool has one thread per core.
  EXPECT_EQ(St.Workers, ThreadPool::defaultConcurrency());
  // The stats line carries the schema stamp.
  std::string Line = statsLine(St);
  EXPECT_NE(Line.find("\"schema\":\"termcheckd-protocol\""),
            std::string::npos);
  EXPECT_NE(Line.find("\"accepted\":3"), std::string::npos);
}

} // namespace
