//===- server/Sandbox.h - Forked-worker job execution ---------*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mechanism half of termcheckd's process-level job isolation
/// (DESIGN.md section 15). A sandboxed job runs in a forked worker
/// process: the parent ships the JobSpec over a pipe as one JSON document,
/// the child applies per-job OS budgets (`setrlimit` RLIMIT_CPU /
/// RLIMIT_AS mirroring the cooperative ResourceGuard limits, RLIMIT_CORE
/// = 0), runs the same sequential analysis the in-process path runs, and
/// marshals the outcome -- status, verdict, diagnostic, plus the
/// pre-serialized pretty and compact run reports, so byte-identity
/// guarantees survive the process boundary -- back over a second pipe
/// before `_exit()`. A SIGSEGV, abort, rlimit kill, or OOM kill inside
/// the worker costs exactly that one job.
///
/// Policy (liveness polling, SIGTERM->SIGKILL escalation, retry,
/// quarantine) lives in server/Supervisor.h; this header is the
/// fork/pipe/rlimit/classification layer it drives.
///
/// Sanitizer note: under ASan/TSan the RLIMIT_AS budget is skipped (the
/// shadow mappings dwarf any sane budget), and the worker never creates
/// threads (a multithreaded parent's forked child must stay
/// single-threaded under TSan) -- the child runs the sequential Jobs == 1
/// analysis, like every in-process job.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_SERVER_SANDBOX_H
#define TERMCHECK_SERVER_SANDBOX_H

#include <cstdint>
#include <string>
#include <string_view>

#include <sys/types.h>

namespace termcheck {
namespace server {

struct JobSpec;
struct JobOutcome;
struct SchedulerConfig;

/// \returns true when forked-worker isolation is available on this
/// platform (POSIX fork + pipes + waitpid).
bool sandboxSupported();

/// \returns true when the binary runs under ASan/TSan/MSan (compile-time
/// detection); the sandbox skips the address-space rlimit there.
bool sanitizersActive();

/// How the scheduler executes admitted jobs (CLI `--isolation`).
enum class IsolationMode : uint8_t {
  /// Every job runs on the shared pool inside the daemon (the pre-sandbox
  /// behavior; an engine crash would take the fleet down).
  InProcess,
  /// Every job runs in a forked worker, deterministic jobs included
  /// (their reports stay byte-identical: the child pre-serializes them).
  Sandbox,
  /// Sandbox non-deterministic jobs; deterministic byte-identity jobs
  /// keep the pinned in-process path. Degrades to InProcess entirely on
  /// platforms without fork.
  Auto,
};

/// \returns the stable name ("inprocess", "sandbox", "auto").
const char *isolationModeName(IsolationMode M);

/// Inverse of isolationModeName; \returns false on an unknown name.
bool isolationModeFromName(std::string_view Name, IsolationMode &M);

/// Worker-fleet counters and gauges (the `health` protocol line's
/// `sandbox` object; all monotone except ActiveWorkers/QuarantineSize).
struct SandboxHealth {
  uint64_t ActiveWorkers = 0;
  uint64_t Spawned = 0;
  uint64_t Crashed = 0;
  uint64_t OomKilled = 0;
  uint64_t CpuExceeded = 0;
  uint64_t KilledBySupervisor = 0;
  uint64_t Retries = 0;
  uint64_t QuarantineSize = 0;
  uint64_t QuarantineShortCircuits = 0;
};

/// Per-worker OS budget and supervision knobs (SchedulerConfig carries
/// one; the CLI exposes the isolation mode, tests tighten the rest).
struct SandboxConfig {
  /// Grace between SIGTERM (cooperative unwind: the worker traps it into
  /// its cancellation token) and SIGKILL.
  double TermGraceSeconds = 2.0;
  /// Hang cutoff: a worker still running this long past its analysis
  /// timeout -- with no deadline or cancel asking for teardown -- is
  /// presumed wedged and torn down (classified as deadline_exceeded).
  double HangGraceSeconds = 10.0;
  /// RLIMIT_CPU when nonzero; 0 = the analysis timeout plus 30 s of slack.
  double CpuLimitSeconds = 0;
  /// Crashed / OOM-killed attempts are retried this many times on a fresh
  /// worker (transient-failure absorption); 0 disables.
  uint32_t MaxRetries = 1;
  /// Base backoff before a retry; jittered deterministically from the job
  /// id to de-correlate crash-looping neighbors.
  double RetryBackoffSeconds = 0.05;
  /// A program shape whose workers crashed this many times total is
  /// quarantined: later submissions short-circuit to UNKNOWN with a
  /// quarantined flag instead of burning workers. 0 disables.
  uint32_t QuarantineThreshold = 2;
};

/// Structured classification of how a worker process left.
enum class WorkerExitKind : uint8_t {
  /// exit(0) with a complete outcome document on the pipe (the outcome
  /// itself may be a verdict or a clean parse error).
  CleanOutcome,
  /// The worker died to a crash signal (SIGSEGV, SIGABRT, SIGBUS, ...) or
  /// exited nonzero without a usable outcome document.
  Crashed,
  /// Killed by the kernel OOM killer (SIGKILL we did not send) or
  /// self-reported allocation exhaustion (std::bad_alloc at the worker's
  /// top level).
  OomKilled,
  /// RLIMIT_CPU fired (SIGXCPU).
  CpuExceeded,
  /// The supervisor tore it down (cancel, deadline, or hang cutoff) and
  /// the worker died to our SIGTERM/SIGKILL without finishing.
  KilledBySupervisor,
  /// fork/pipe plumbing failed before a worker ran (parent-side).
  SetupFailed,
};

/// \returns a stable name ("clean_outcome", "crashed", ...).
const char *workerExitKindName(WorkerExitKind K);

struct WorkerExit {
  WorkerExitKind Kind = WorkerExitKind::SetupFailed;
  /// Terminating signal when the worker died to one (0 otherwise).
  int Signal = 0;
  /// Exit code when it exited (0 otherwise).
  int ExitCode = 0;
};

/// Worker self-reported exit codes (picked clear of shell conventions).
inline constexpr int WorkerExitOom = 86;   ///< top-level bad_alloc
inline constexpr int WorkerExitSetup = 87; ///< job doc unreadable

/// One live worker as the supervisor sees it.
struct WorkerHandle {
  pid_t Pid = -1;
  /// Read end of the worker's outcome pipe (parent side). The supervisor
  /// drains it while polling so a large report cannot deadlock the worker
  /// against the pipe buffer.
  int OutFd = -1;
};

/// Forks one worker for \p Spec (attempt \p Attempt). The CHILD never
/// returns: it re-enables signals, closes unrelated fds, reads the job
/// document from its pipe, applies rlimits, runs the sequential analysis,
/// writes the outcome document, and _exit()s. The PARENT gets \p H back.
/// \returns false (with \p Error set) when pipe/fork plumbing failed.
bool spawnWorker(const JobSpec &Spec, const SchedulerConfig &Cfg,
                 uint32_t Attempt, WorkerHandle &H, std::string *Error);

/// Classifies a waitpid status. \p SentTerm / \p SentKill say whether the
/// supervisor signalled this worker (distinguishes our SIGKILL from the
/// kernel OOM killer's).
WorkerExit classifyWorkerExit(int WStatus, bool SentTerm, bool SentKill);

/// Parses the outcome document a worker wrote into \p O (which arrives
/// pre-filled with the parent-side identity fields and keeps them).
/// \returns false when the bytes do not form a complete document -- the
/// worker died mid-write; the caller classifies by exit status instead.
bool parseWorkerOutcome(const std::string &Bytes, JobOutcome &O);

/// Canonical program-shape hash for the crash-loop quarantine: whitespace
/// runs collapse to one space so formatting cannot dodge the quarantine,
/// then the bytes run through the same FNV-style mix the PR 5 interner
/// hashing uses.
uint64_t programShapeHash(std::string_view ProgramText);

} // namespace server
} // namespace termcheck

#endif // TERMCHECK_SERVER_SANDBOX_H
