//===- server/Scheduler.h - Batch job scheduler ---------------*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduling core of `termcheckd` (DESIGN.md section 14): many
/// programs analyzed at once on one thread pool.
///
/// Submissions pass admission control (a bounded queue; a full queue
/// answers `queue_full` instead of buffering without bound) and at most
/// MaxActiveJobs of them are in flight at once. Every active job is one
/// pool task: it runs executeJobSync in process -- the library-default
/// analyzer or the deterministic sequential portfolio -- or hands the job
/// to a supervised sandbox worker, which runs the same code. The pool has
/// one thread per core, so MaxActiveJobs is the one concurrency knob.
///
/// Containment is per job: every job gets its own CancellationToken (the
/// deadline monitor and drain trip it; the analyzer polls it at every
/// budget-hook site) and its own ResourceGuard budget, so one pathological
/// submission degrades itself -- never the fleet. Completion is delivered
/// through a callback on a pool worker; the callback owns the outcome and
/// typically serializes a `result` protocol line.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_SERVER_SCHEDULER_H
#define TERMCHECK_SERVER_SCHEDULER_H

#include "server/Protocol.h"
#include "server/Sandbox.h"
#include "support/ResourceGuard.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "termination/RunReport.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

namespace termcheck {
namespace server {

class Supervisor;

/// Fleet-level knobs of one scheduler instance.
struct SchedulerConfig {
  /// Jobs allowed to run at once; each holds one pool task.
  size_t MaxActiveJobs = 4;
  /// Admission-queue bound; a submission beyond it is rejected with
  /// queue_full (backpressure, never unbounded buffering).
  size_t QueueCapacity = 64;
  /// Clamp on client-requested per-job analysis budgets.
  double MaxTimeoutSeconds = 300;
  /// Default per-job ResourceGuard state cap when the job does not set
  /// max_states (0 = no guard). Bounds the memory one job can take from
  /// the fleet.
  uint64_t DefaultMaxStatesPerJob = 4u << 20;
  /// How admitted jobs execute. InProcess is the library default (no
  /// behavior change for embedders and benches); the termcheckd CLI
  /// defaults to Auto.
  IsolationMode Isolation = IsolationMode::InProcess;
  /// Per-worker OS budgets and supervision policy (sandboxed modes only).
  SandboxConfig SandboxCfg;
  /// Worker lifecycle events (spawn/exit/kill/retry/quarantine) are
  /// emitted here when non-null.
  Trace *Tracer = nullptr;
};

/// How a job left the scheduler.
enum class JobStatus : uint8_t {
  /// The analysis ran to a verdict (any verdict, TIMEOUT included).
  Finished,
  /// The program text did not parse; Diagnostic carries the message.
  ParseError,
  /// The admission-to-completion deadline fired (queued or mid-run).
  DeadlineExceeded,
  /// Cancelled by a hard drain or an explicit cancel request.
  Cancelled,
  /// A sandboxed worker died to a crash signal (SIGSEGV, SIGABRT, ...) or
  /// exited without a usable outcome document; Diagnostic names the
  /// signal. The daemon itself is unaffected.
  WorkerCrashed,
  /// A sandboxed worker hit its address-space budget (kernel OOM kill or
  /// self-reported allocation exhaustion).
  WorkerOom,
  /// A sandboxed worker's RLIMIT_CPU fired.
  WorkerCpuExceeded,
};

/// \returns the stable wire name ("finished", "parse_error", ...).
const char *jobStatusName(JobStatus S);

/// One submission.
struct JobSpec {
  std::string Id;
  std::string ProgramText;
  /// Where the program came from (a client-supplied path or label; feeds
  /// the report's `source` field, may be empty).
  std::string Source;
  JobOptions Opts;
};

/// Everything a finished job hands to its completion callback.
struct JobOutcome {
  std::string Id;
  JobStatus Status = JobStatus::Finished;
  /// Parsed program name ("" when parsing failed).
  std::string ProgramName;
  std::string Source;
  /// Diagnostic for ParseError / DeadlineExceeded / Cancelled.
  std::string Diagnostic;
  /// Analysis result; meaningful unless Status == ParseError. A deadline
  /// or drain that fired mid-run leaves the (CANCELLED-verdict) result of
  /// the torn-down analysis here.
  AnalysisResult Result;
  /// Present for portfolio jobs (PortfolioK > 0).
  std::optional<PortfolioRunResult> Portfolio;
  /// Echo of the submission's options (post-clamping).
  JobOptions Opts;
  /// Seconds the job waited in the admission queue.
  double QueueSeconds = 0;
  /// Seconds from activation to completion.
  double RunSeconds = 0;

  //===-- Sandbox execution evidence (sandboxed jobs only) ---------------===//
  /// The job ran in a forked worker (any isolation mode).
  bool Sandboxed = false;
  /// Worker attempts consumed, retries included (0 for a quarantine
  /// short-circuit that never spawned one).
  uint32_t Attempts = 0;
  /// Terminating signal of the last worker when it died to one.
  int WorkerSignal = 0;
  /// The program shape is in (or just entered) the crash-loop quarantine.
  bool Quarantined = false;
  /// Byte-exact reports the worker pre-serialized before _exit(), so the
  /// deterministic byte-identity guarantee survives the process boundary:
  /// writeOutcomeReport / resultLine embed these verbatim instead of
  /// re-marshalling the (not fully serializable) AnalysisResult.
  std::string ReportPretty;
  std::string ReportCompact;
};

/// Runs one job to an outcome on the calling thread: parse, then the
/// sequential portfolio (PortfolioK > 0) or the single library-default
/// configuration, with engine-fault containment ("engine fault: ..."
/// diagnostic, UNKNOWN verdict). Shared verbatim by the in-process path
/// and the sandbox worker child -- both isolation modes run exactly this
/// code, which is what makes their reports comparable. Fills Status
/// (Finished or ParseError), ProgramName, Diagnostic, Result, Portfolio;
/// identity fields and timings are the caller's.
void executeJobSync(const JobSpec &Spec, const SchedulerConfig &Cfg,
                    CancellationToken *Cancel, JobOutcome &O);

/// Writes the job's standalone run report -- byte-for-byte what
/// `termcheck --jobs 1 --stats-json` emits for the same program and
/// options (the determinism gate in tests/server_scheduler_test.cpp pins
/// this for deterministic jobs). Only valid when the outcome has a result
/// (Status != ParseError).
void writeOutcomeReport(std::ostream &OS, const JobOutcome &O,
                        bool Pretty = true);

/// The compact (single-line, no trailing newline) form of the outcome's
/// run report: the object resultLine embeds. Returns the worker's
/// pre-serialized bytes when present.
std::string outcomeReportCompact(const JobOutcome &O);

/// One `result` protocol line (compact embedded report, or the diagnostic
/// for ParseError outcomes). Sandboxed outcomes carry an extra `sandbox`
/// object ({"attempts":N,"signal":S,"quarantined":B}).
std::string resultLine(const JobOutcome &O);

/// Monotone counters and gauges for the `{"op":"stats"}` reply.
struct SchedulerStats {
  uint64_t Accepted = 0;
  uint64_t Completed = 0;
  uint64_t RejectedQueueFull = 0;
  uint64_t RejectedDuplicateId = 0;
  uint64_t RejectedDraining = 0;
  uint64_t ParseErrors = 0;
  uint64_t DeadlineExceeded = 0;
  uint64_t Cancelled = 0;
  /// Worker-isolation outcomes (sandboxed modes only).
  uint64_t WorkerCrashed = 0;
  uint64_t WorkerOom = 0;
  uint64_t WorkerCpuExceeded = 0;
  /// Verdict census across finished jobs.
  uint64_t Terminating = 0;
  uint64_t Nonterminating = 0;
  uint64_t Unknown = 0;
  uint64_t Timeout = 0;
  uint64_t CancelledVerdicts = 0;
  /// Gauges.
  uint64_t QueueDepth = 0;
  uint64_t ActiveJobs = 0;
  uint64_t Workers = 0;
  bool Draining = false;
  double UptimeSeconds = 0;
  /// Work integrals (sum over completed jobs).
  double TotalQueueSeconds = 0;
  double TotalRunSeconds = 0;
};

/// One `stats` protocol line.
std::string statsLine(const SchedulerStats &S);

/// Snapshot answering a `{"op":"health"}` probe: the load gauges a
/// monitoring client needs plus the worker-fleet counters.
struct HealthInfo {
  uint64_t QueueDepth = 0;
  uint64_t ActiveJobs = 0;
  uint64_t Workers = 0;
  IsolationMode Isolation = IsolationMode::InProcess;
  bool Draining = false;
  double UptimeSeconds = 0;
  SandboxHealth Sandbox;
};

/// One `health` protocol line.
std::string healthLine(const HealthInfo &H);

/// The job scheduler. Thread-safe; submit() may be called from any number
/// of session threads concurrently.
class Scheduler {
public:
  /// What submit() said about a job.
  enum class Admission : uint8_t {
    Accepted,
    QueueFull,
    DuplicateId,
    Draining,
  };

  using CompletionFn = std::function<void(JobOutcome)>;

  explicit Scheduler(const SchedulerConfig &Cfg);
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Admission control. Accepted jobs eventually invoke \p Done exactly
  /// once, on a pool worker (or on the monitor thread, for jobs torn down
  /// while still queued). Rejected jobs never do. \p QueueDepth, when
  /// given, receives the post-admission queue depth (for the `accepted`
  /// protocol line).
  Admission submit(JobSpec Spec, CompletionFn Done,
                   size_t *QueueDepth = nullptr);

  /// Cancels a queued or active job by id. \returns false when no such
  /// job is in flight. The job still completes through its callback (with
  /// Cancelled status if the cancel won the race against completion).
  bool cancel(const std::string &Id);

  /// Stops admitting jobs. Queued and active jobs still run to completion
  /// (graceful; the termcheckd SIGINT/SIGTERM path), unless \p Hard, which
  /// cancels queued jobs outright and trips every active job's token so
  /// running analyses unwind at their next poll.
  void beginDrain(bool Hard);

  bool draining() const;

  /// Blocks until no job is queued or active AND every completion
  /// callback has returned -- so a transport that emits its `drained`
  /// line after awaitIdle() is guaranteed to emit it strictly after the
  /// last `result` line. Pair with beginDrain for shutdown; also usable
  /// as a barrier between test phases.
  void awaitIdle();

  SchedulerStats stats() const;

  /// The `{"op":"health"}` snapshot (stats gauges + worker-fleet state).
  HealthInfo health() const;

private:
  struct Job;

  SchedulerConfig Cfg;
  ThreadPool Pool;
  Timer Uptime;
  /// Worker-table owner for the sandboxed isolation modes (always built;
  /// idle and empty under InProcess).
  std::unique_ptr<Supervisor> Sup;

  mutable std::mutex M;
  std::condition_variable IdleCv;
  std::deque<std::shared_ptr<Job>> Pending;
  std::vector<std::shared_ptr<Job>> Active;
  std::unordered_set<std::string> InFlightIds;
  SchedulerStats Counters;
  /// Completion callbacks currently executing (outside the lock);
  /// awaitIdle waits for them too.
  size_t CallbacksInFlight = 0;
  bool DrainFlag = false;
  bool Shutdown = false;

  std::condition_variable MonitorCv;
  std::thread Monitor;

  void monitorLoop();
  /// Moves queued jobs into the active set while active slots are free.
  /// Caller holds M.
  void activateLocked();
  /// Submits \p J's one pool task. Caller holds M.
  void launchLocked(const std::shared_ptr<Job> &J);
  /// Stamps the outcome's final status from the job's teardown flags
  /// (deadline beats cancel beats finished), then hands off to finish().
  void finishWithVerdict(const std::shared_ptr<Job> &J, JobOutcome O);
  /// Removes \p J from Active, updates counters, promotes successors, and
  /// runs the completion callback outside the lock.
  void finish(const std::shared_ptr<Job> &J, JobOutcome Outcome);
};

} // namespace server
} // namespace termcheck

#endif // TERMCHECK_SERVER_SCHEDULER_H
