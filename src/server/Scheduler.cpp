//===- server/Scheduler.cpp - Batch job scheduler -------------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/Scheduler.h"

#include "program/Parser.h"
#include "server/Supervisor.h"
#include "support/CancellationToken.h"
#include "support/Error.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>

using namespace termcheck;
using namespace termcheck::server;

const char *termcheck::server::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Finished:
    return "finished";
  case JobStatus::ParseError:
    return "parse_error";
  case JobStatus::DeadlineExceeded:
    return "deadline_exceeded";
  case JobStatus::Cancelled:
    return "cancelled";
  case JobStatus::WorkerCrashed:
    return "worker_crashed";
  case JobStatus::WorkerOom:
    return "worker_oom";
  case JobStatus::WorkerCpuExceeded:
    return "worker_cpu_exceeded";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Report and line serialization
//===----------------------------------------------------------------------===//

namespace {

RunReportInput reportInput(const JobOutcome &O) {
  RunReportInput In;
  In.ProgramName = O.ProgramName;
  In.SourcePath = O.Source;
  In.Result = &O.Result;
  In.Portfolio = O.Portfolio ? &*O.Portfolio : nullptr;
  In.TimeoutSeconds = O.Opts.TimeoutSeconds;
  In.TraceEvents = 0;
  return In;
}

} // namespace

void termcheck::server::writeOutcomeReport(std::ostream &OS,
                                           const JobOutcome &O, bool Pretty) {
  // A sandboxed outcome carries the report its worker serialized before
  // _exit(); emitting those bytes verbatim is what keeps the byte-identity
  // guarantee across the process boundary.
  if (Pretty && !O.ReportPretty.empty()) {
    OS << O.ReportPretty;
    return;
  }
  if (!Pretty && !O.ReportCompact.empty()) {
    OS << O.ReportCompact << "\n";
    return;
  }
  // Field-for-field the document writeRunReport emits -- the CLI's
  // --stats-json output -- so a deterministic server job's standalone
  // report is byte-identical to the equivalent `termcheck --jobs 1
  // --stats-json --stats-deterministic` run (pinned by the scheduler
  // tests).
  RunReportInput In = reportInput(O);
  RunReportOptions RO;
  RO.Deterministic = O.Opts.Deterministic;
  json::Writer W(OS, Pretty);
  W.beginObject();
  writeRunReportFields(W, In, RO);
  W.endObject();
  W.finish();
}

std::string termcheck::server::outcomeReportCompact(const JobOutcome &O) {
  if (!O.ReportCompact.empty())
    return O.ReportCompact;
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  RunReportInput In = reportInput(O);
  RunReportOptions RO;
  RO.Deterministic = O.Opts.Deterministic;
  W.beginObject();
  writeRunReportFields(W, In, RO);
  W.endObject();
  return OS.str();
}

std::string termcheck::server::resultLine(const JobOutcome &O) {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("type", "result");
  W.field("id", O.Id);
  W.field("status", jobStatusName(O.Status));
  if (!O.Diagnostic.empty())
    W.field("diagnostic", O.Diagnostic);
  const bool Det = O.Opts.Deterministic;
  W.field("queue_s", Det ? 0.0 : O.QueueSeconds);
  W.field("run_s", Det ? 0.0 : O.RunSeconds);
  if (O.Sandboxed) {
    W.key("sandbox");
    W.beginObject();
    W.field("attempts", static_cast<int64_t>(O.Attempts));
    W.field("signal", O.WorkerSignal);
    W.field("quarantined", O.Quarantined);
    W.endObject();
  }
  if (O.Status == JobStatus::ParseError) {
    W.fieldNull("verdict");
    W.fieldNull("report");
  } else {
    W.field("verdict", verdictName(O.Result.V));
    W.key("report");
    W.rawValue(outcomeReportCompact(O));
  }
  W.endObject();
  W.finish();
  return OS.str();
}

std::string termcheck::server::statsLine(const SchedulerStats &S) {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("type", "stats");
  W.field("schema", ProtocolSchemaName);
  W.field("schema_version", static_cast<int64_t>(ProtocolSchemaVersion));
  W.field("accepted", S.Accepted);
  W.field("completed", S.Completed);
  W.field("rejected_queue_full", S.RejectedQueueFull);
  W.field("rejected_duplicate_id", S.RejectedDuplicateId);
  W.field("rejected_draining", S.RejectedDraining);
  W.field("parse_errors", S.ParseErrors);
  W.field("deadline_exceeded", S.DeadlineExceeded);
  W.field("cancelled", S.Cancelled);
  W.field("worker_crashed", S.WorkerCrashed);
  W.field("worker_oom", S.WorkerOom);
  W.field("worker_cpu_exceeded", S.WorkerCpuExceeded);
  W.key("verdicts");
  W.beginObject();
  W.field("terminating", S.Terminating);
  W.field("nonterminating", S.Nonterminating);
  W.field("unknown", S.Unknown);
  W.field("timeout", S.Timeout);
  W.field("cancelled", S.CancelledVerdicts);
  W.endObject();
  W.field("queue_depth", S.QueueDepth);
  W.field("active_jobs", S.ActiveJobs);
  W.field("workers", S.Workers);
  W.field("draining", S.Draining);
  W.field("uptime_s", S.UptimeSeconds);
  W.field("queue_wait_s_total", S.TotalQueueSeconds);
  W.field("run_s_total", S.TotalRunSeconds);
  W.endObject();
  W.finish();
  return OS.str();
}

std::string termcheck::server::healthLine(const HealthInfo &H) {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("type", "health");
  W.field("schema", ProtocolSchemaName);
  W.field("schema_version", static_cast<int64_t>(ProtocolSchemaVersion));
  W.field("queue_depth", H.QueueDepth);
  W.field("active_jobs", H.ActiveJobs);
  W.field("workers", H.Workers);
  W.field("isolation", isolationModeName(H.Isolation));
  W.field("draining", H.Draining);
  W.field("uptime_s", H.UptimeSeconds);
  W.key("sandbox");
  W.beginObject();
  W.field("active_workers", H.Sandbox.ActiveWorkers);
  W.field("spawned", H.Sandbox.Spawned);
  W.field("crashed", H.Sandbox.Crashed);
  W.field("oom_killed", H.Sandbox.OomKilled);
  W.field("cpu_exceeded", H.Sandbox.CpuExceeded);
  W.field("killed_by_supervisor", H.Sandbox.KilledBySupervisor);
  W.field("retries", H.Sandbox.Retries);
  W.field("quarantine_size", H.Sandbox.QuarantineSize);
  W.field("quarantine_short_circuits", H.Sandbox.QuarantineShortCircuits);
  W.endObject();
  W.endObject();
  W.finish();
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

/// One admitted job, shared between the queue, the monitor and its pool
/// task. All mutable fields are written under the scheduler mutex; the
/// token is safe to trip from anywhere.
struct Scheduler::Job {
  JobSpec Spec;
  CompletionFn Done;
  /// Per-job teardown: the deadline monitor, cancel(), and a hard drain
  /// all trip it; the analyzer polls it at every budget-hook site.
  CancellationToken Token;
  /// Admission-relative clock (queue-wait measurement).
  Timer Admitted;
  /// Armed at admission when the job asked for a deadline.
  Deadline JobDeadline;
  bool DeadlineArmed = false;
  /// Set by the monitor when the deadline fired (distinguishes
  /// deadline_exceeded from cancelled in the outcome).
  bool DeadlineFired = false;
  /// Set by cancel() and by a hard drain.
  bool CancelRequested = false;
  /// Queue-wait, frozen at activation.
  double QueueSeconds = 0;
  /// Activation-relative clock.
  Timer RunClock;
};

Scheduler::Scheduler(const SchedulerConfig &C)
    : Cfg(C), Pool(ThreadPool::defaultConcurrency()) {
  if (Cfg.MaxActiveJobs == 0)
    Cfg.MaxActiveJobs = 1;
  Sup = std::make_unique<Supervisor>(Cfg);
  Monitor = std::thread([this] { monitorLoop(); });
}

Scheduler::~Scheduler() {
  beginDrain(/*Hard=*/true);
  awaitIdle();
  // Jobs are gone, but a worker may still be inside a finish() epilogue
  // (its task has not returned yet); wait for the pool to go quiet before
  // members start dying.
  Pool.waitIdle();
  {
    std::lock_guard<std::mutex> Lock(M);
    Shutdown = true;
  }
  MonitorCv.notify_all();
  if (Monitor.joinable())
    Monitor.join();
}

Scheduler::Admission Scheduler::submit(JobSpec Spec, CompletionFn Done,
                                       size_t *QueueDepth) {
  // Normalize the analysis knobs once, at the admission boundary, so the
  // echo in the outcome (and the report built from it) reflects what
  // actually ran. An absent/zero/oversized timeout is clamped to the
  // server budget.
  if (Spec.Opts.TimeoutSeconds <= 0 ||
      Spec.Opts.TimeoutSeconds > Cfg.MaxTimeoutSeconds)
    Spec.Opts.TimeoutSeconds = Cfg.MaxTimeoutSeconds;

  auto J = std::make_shared<Job>();
  J->Spec = std::move(Spec);
  J->Done = std::move(Done);
  if (J->Spec.Opts.DeadlineSeconds > 0) {
    J->JobDeadline = Deadline::after(J->Spec.Opts.DeadlineSeconds);
    J->DeadlineArmed = true;
  }

  std::lock_guard<std::mutex> Lock(M);
  if (DrainFlag || Shutdown) {
    ++Counters.RejectedDraining;
    return Admission::Draining;
  }
  if (InFlightIds.count(J->Spec.Id)) {
    ++Counters.RejectedDuplicateId;
    return Admission::DuplicateId;
  }
  if (Pending.size() >= Cfg.QueueCapacity) {
    ++Counters.RejectedQueueFull;
    return Admission::QueueFull;
  }
  InFlightIds.insert(J->Spec.Id);
  Pending.push_back(J);
  ++Counters.Accepted;
  activateLocked();
  if (QueueDepth)
    *QueueDepth = Pending.size();
  return Admission::Accepted;
}

bool Scheduler::cancel(const std::string &Id) {
  std::lock_guard<std::mutex> Lock(M);
  if (!InFlightIds.count(Id))
    return false;
  for (const auto &J : Pending)
    if (J->Spec.Id == Id) {
      J->CancelRequested = true;
      J->Token.cancel(); // the monitor reaps it from the queue
      return true;
    }
  for (const auto &J : Active)
    if (J->Spec.Id == Id) {
      J->CancelRequested = true;
      J->Token.cancel();
      return true;
    }
  return false;
}

void Scheduler::beginDrain(bool Hard) {
  {
    std::lock_guard<std::mutex> Lock(M);
    DrainFlag = true;
    if (Hard) {
      for (const auto &J : Pending) {
        J->CancelRequested = true;
        J->Token.cancel();
      }
      for (const auto &J : Active) {
        J->CancelRequested = true;
        J->Token.cancel();
      }
    }
  }
  // Wake the monitor so hard-drained queued jobs complete promptly.
  MonitorCv.notify_all();
}

bool Scheduler::draining() const {
  std::lock_guard<std::mutex> Lock(M);
  return DrainFlag;
}

void Scheduler::awaitIdle() {
  std::unique_lock<std::mutex> Lock(M);
  IdleCv.wait(Lock, [this] {
    return Pending.empty() && Active.empty() && CallbacksInFlight == 0;
  });
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  SchedulerStats S = Counters;
  S.QueueDepth = Pending.size();
  S.ActiveJobs = Active.size();
  S.Workers = Pool.numThreads();
  S.Draining = DrainFlag;
  S.UptimeSeconds = Uptime.seconds();
  return S;
}

HealthInfo Scheduler::health() const {
  HealthInfo H;
  {
    std::lock_guard<std::mutex> Lock(M);
    H.QueueDepth = Pending.size();
    H.ActiveJobs = Active.size();
    H.Workers = Pool.numThreads();
    H.Isolation = Cfg.Isolation;
    H.Draining = DrainFlag;
    H.UptimeSeconds = Uptime.seconds();
  }
  H.Sandbox = Sup->health();
  return H;
}

void Scheduler::activateLocked() {
  while (Active.size() < Cfg.MaxActiveJobs && !Pending.empty()) {
    std::shared_ptr<Job> J = Pending.front();
    Pending.pop_front();
    J->QueueSeconds = J->Admitted.seconds();
    J->RunClock.reset();
    Active.push_back(J);
    launchLocked(J);
  }
}

namespace {

/// The non-verdict part of an outcome, common to every completion path.
JobOutcome baseOutcome(const JobSpec &Spec) {
  JobOutcome O;
  O.Id = Spec.Id;
  O.Source = Spec.Source;
  O.Opts = Spec.Opts;
  return O;
}

} // namespace

void termcheck::server::executeJobSync(const JobSpec &Spec,
                                       const SchedulerConfig &Cfg,
                                       CancellationToken *Cancel,
                                       JobOutcome &O) {
  ParseResult Parsed = parseProgram(Spec.ProgramText);
  if (!Parsed.ok()) {
    O.Status = JobStatus::ParseError;
    O.Diagnostic = Parsed.Error;
    return;
  }
  Program &P = *Parsed.Prog;
  O.ProgramName = P.name();
  O.Status = JobStatus::Finished;
  const JobOptions &JO = Spec.Opts;

  if (JO.PortfolioK > 0) {
    // Deterministic portfolio: the sequential Jobs == 1 fallback runs
    // inline on the calling thread (it spawns nothing). Reports are
    // byte-identical to `termcheck --portfolio K --jobs 1`.
    PortfolioOptions PO;
    PO.Jobs = 1;
    PO.TimeoutSeconds = JO.TimeoutSeconds;
    PO.DisableNonterm = JO.NoNonterm;
    PO.MaxProductStates = JO.MaxStates;
    PO.Cancel = Cancel;
    if (!JO.Deterministic && Cfg.DefaultMaxStatesPerJob != 0)
      PO.GuardLimits.MaxStates = Cfg.DefaultMaxStatesPerJob;
    PortfolioRunResult PR = runPortfolio(P, defaultPortfolio(JO.PortfolioK), PO);
    O.Result = std::move(PR.Result);
    O.Result.Seconds = PR.Seconds;
    O.Portfolio = std::move(PR);
    return;
  }

  // Single-configuration job: the library-default analyzer, exactly the
  // CLI without --portfolio.
  AnalyzerOptions AO;
  AO.TimeoutSeconds = JO.TimeoutSeconds;
  AO.ProveNontermination = !JO.NoNonterm;
  AO.MaxProductStates = JO.MaxStates;
  AO.Cancel = Cancel;
  std::optional<ResourceGuard> GuardStorage;
  if (!JO.Deterministic && Cfg.DefaultMaxStatesPerJob != 0) {
    ResourceGuard::Limits GL;
    GL.MaxStates = Cfg.DefaultMaxStatesPerJob;
    GuardStorage.emplace(GL);
    AO.Guard = &*GuardStorage;
  }
  ErrorOr<AnalysisResult> R = errorOrOf([&] {
    TerminationAnalyzer A(P, AO);
    return A.run();
  });
  if (R.ok()) {
    O.Result = std::move(R.value());
  } else {
    // Contained engine fault: the job reports UNKNOWN with the fault as
    // its diagnostic (the CLI's exit-2 path), never a dead server.
    O.Result.V = Verdict::Unknown;
    O.Diagnostic = std::string("engine fault: ") + R.error().what();
  }
}

void Scheduler::launchLocked(const std::shared_ptr<Job> &J) {
  Pool.submit([this, J] {
    // Torn down while waiting for a worker: report without analyzing.
    bool Dead, DeadlineHit;
    {
      std::lock_guard<std::mutex> Lock(M);
      Dead = J->Token.cancelled();
      DeadlineHit = J->DeadlineFired;
    }
    JobOutcome O = baseOutcome(J->Spec);
    if (Dead) {
      O.Status = DeadlineHit ? JobStatus::DeadlineExceeded
                             : JobStatus::Cancelled;
      O.Result.V = Verdict::Cancelled;
      O.Diagnostic = DeadlineHit ? "deadline exceeded before the job ran"
                                 : "cancelled before the job ran";
      O.QueueSeconds = J->QueueSeconds;
      finish(J, std::move(O));
      return;
    }

    // Isolation dispatch: sandboxed jobs hand the whole execution --
    // parsing included, a parser crash is still a crash -- to the
    // supervisor, which blocks this task for the worker's lifetime, as an
    // in-process job blocks it for its analysis.
    bool UseSandbox = false;
    switch (Cfg.Isolation) {
    case IsolationMode::InProcess:
      break;
    case IsolationMode::Sandbox:
      UseSandbox = sandboxSupported();
      break;
    case IsolationMode::Auto:
      // Deterministic byte-identity jobs keep the pinned in-process path.
      UseSandbox = sandboxSupported() && !J->Spec.Opts.Deterministic;
      break;
    }
    if (UseSandbox) {
      finishWithVerdict(J, Sup->run(J->Spec, J->Token));
      return;
    }

    // In process: the exact code a sandbox worker child runs, on this
    // task's thread.
    executeJobSync(J->Spec, Cfg, &J->Token, O);
    if (O.Status == JobStatus::ParseError) {
      O.QueueSeconds = J->QueueSeconds;
      O.RunSeconds = J->RunClock.seconds();
      finish(J, std::move(O));
      return;
    }
    finishWithVerdict(J, std::move(O));
  });
}

void Scheduler::finishWithVerdict(const std::shared_ptr<Job> &J,
                                  JobOutcome O) {
  // worker_* classifications and a worker's clean parse error are sticky:
  // a crash that races a deadline or cancel still reports the crash (the
  // structured evidence beats the teardown reason). Everything else is
  // restamped from the job's teardown flags; an outcome that arrived with
  // a non-Finished status and no flags set (the supervisor's hang
  // classification) keeps it.
  const bool Sticky = O.Status == JobStatus::WorkerCrashed ||
                      O.Status == JobStatus::WorkerOom ||
                      O.Status == JobStatus::WorkerCpuExceeded ||
                      O.Status == JobStatus::ParseError;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (!Sticky) {
      if (J->DeadlineFired) {
        O.Status = JobStatus::DeadlineExceeded;
        O.Diagnostic = "deadline exceeded";
      } else if (J->CancelRequested) {
        O.Status = JobStatus::Cancelled;
        O.Diagnostic = "cancelled";
      }
      // else: keep the pre-set status (Finished by default).
    }
  }
  O.QueueSeconds = J->QueueSeconds;
  O.RunSeconds = J->RunClock.seconds();
  finish(J, std::move(O));
}

void Scheduler::finish(const std::shared_ptr<Job> &J, JobOutcome Outcome) {
  CompletionFn Done;
  {
    std::lock_guard<std::mutex> Lock(M);
    Active.erase(std::remove(Active.begin(), Active.end(), J), Active.end());
    InFlightIds.erase(J->Spec.Id);
    ++Counters.Completed;
    switch (Outcome.Status) {
    case JobStatus::Finished:
      switch (Outcome.Result.V) {
      case Verdict::Terminating:
        ++Counters.Terminating;
        break;
      case Verdict::Nonterminating:
        ++Counters.Nonterminating;
        break;
      case Verdict::Unknown:
        ++Counters.Unknown;
        break;
      case Verdict::Timeout:
        ++Counters.Timeout;
        break;
      case Verdict::Cancelled:
        ++Counters.CancelledVerdicts;
        break;
      }
      break;
    case JobStatus::ParseError:
      ++Counters.ParseErrors;
      break;
    case JobStatus::DeadlineExceeded:
      ++Counters.DeadlineExceeded;
      break;
    case JobStatus::Cancelled:
      ++Counters.Cancelled;
      break;
    case JobStatus::WorkerCrashed:
      ++Counters.WorkerCrashed;
      break;
    case JobStatus::WorkerOom:
      ++Counters.WorkerOom;
      break;
    case JobStatus::WorkerCpuExceeded:
      ++Counters.WorkerCpuExceeded;
      break;
    }
    Counters.TotalQueueSeconds += Outcome.QueueSeconds;
    Counters.TotalRunSeconds += Outcome.RunSeconds;
    Done = std::move(J->Done);
    if (Done)
      ++CallbacksInFlight;
    activateLocked();
  }
  if (Done) {
    Done(std::move(Outcome));
    std::lock_guard<std::mutex> Lock(M);
    --CallbacksInFlight;
  }
  IdleCv.notify_all();
}

void Scheduler::monitorLoop() {
  std::unique_lock<std::mutex> Lock(M);
  while (!Shutdown) {
    // The deadline monitor's 25 ms poll period.
    MonitorCv.wait_for(Lock, std::chrono::milliseconds(25));
    if (Shutdown)
      break;
    // Reap queued jobs that died waiting (deadline, cancel, hard drain):
    // they must not wait for an active slot just to report their teardown.
    std::vector<std::shared_ptr<Job>> Reaped;
    for (auto It = Pending.begin(); It != Pending.end();) {
      Job &J = **It;
      if (J.DeadlineArmed && !J.Token.cancelled() && J.JobDeadline.expired()) {
        J.DeadlineFired = true;
        J.Token.cancel();
      }
      if (J.Token.cancelled()) {
        Reaped.push_back(*It);
        It = Pending.erase(It);
      } else {
        ++It;
      }
    }
    // Trip deadlines of running jobs; the analysis unwinds at its next
    // cancellation poll and completes through the normal task path.
    for (const auto &J : Active)
      if (J->DeadlineArmed && !J->Token.cancelled() &&
          J->JobDeadline.expired()) {
        J->DeadlineFired = true;
        J->Token.cancel();
      }
    if (Reaped.empty())
      continue;
    Lock.unlock();
    for (const auto &J : Reaped) {
      JobOutcome O = baseOutcome(J->Spec);
      O.Status = J->DeadlineFired ? JobStatus::DeadlineExceeded
                                  : JobStatus::Cancelled;
      O.Result.V = Verdict::Cancelled;
      O.Diagnostic = J->DeadlineFired
                         ? "deadline exceeded while queued"
                         : "cancelled while queued";
      O.QueueSeconds = J->Admitted.seconds();
      finish(J, std::move(O));
    }
    Lock.lock();
  }
}
