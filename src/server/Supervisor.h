//===- server/Supervisor.h - Worker liveness and crash policy -*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The policy half of termcheckd's process-level job isolation (DESIGN.md
/// section 15), layered over the fork/pipe/rlimit mechanism of
/// server/Sandbox.h. One Supervisor per Scheduler owns the live-worker
/// table and, per job:
///
///  * drives the worker: a poll loop drains the outcome pipe (so a large
///    report can never deadlock the worker against the pipe buffer),
///    reaps with waitpid(WNOHANG), and watches both the job's
///    cancellation token and a hang cutoff (analysis timeout +
///    HangGraceSeconds);
///
///  * escalates teardown: SIGTERM first (the worker traps it into its
///    token and unwinds with a real outcome document), SIGKILL after
///    TermGraceSeconds;
///
///  * classifies the exit (clean outcome / crash signal / OOM kill /
///    RLIMIT_CPU / killed-by-us) into the worker_* job statuses;
///
///  * retries transiently crashed attempts once (configurable) on a fresh
///    worker after a deterministic jittered backoff;
///
///  * quarantines crash-looping program shapes: a canonical-shape hash
///    whose workers crashed QuarantineThreshold times short-circuits
///    later submissions to UNKNOWN with a `quarantined` flag instead of
///    burning more workers.
///
/// run() blocks its calling pool task for the worker's lifetime, as an
/// in-process job blocks it for its analysis. All methods are
/// thread-safe; MaxActiveJobs callers drive workers concurrently through
/// one Supervisor.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_SERVER_SUPERVISOR_H
#define TERMCHECK_SERVER_SUPERVISOR_H

#include "server/Scheduler.h"
#include "support/Trace.h"

#include <mutex>
#include <unordered_map>

namespace termcheck {

class CancellationToken;

namespace server {

/// Deterministic retry-backoff jitter for attempt \p AttemptNo of job
/// \p Id: Base scaled by a factor in [1, 2) derived from a plain byte-hash
/// of (id, attempt). Every byte of the id participates -- ids differing
/// only in whitespace must NOT share jitter (regression-tested in
/// tests/server_sandbox_test.cpp).
double retryBackoffJitter(double Base, const std::string &Id,
                          uint32_t AttemptNo);

class Supervisor {
public:
  /// \p Cfg must outlive the supervisor (the Scheduler passes its own
  /// config member).
  explicit Supervisor(const SchedulerConfig &Cfg);

  Supervisor(const Supervisor &) = delete;
  Supervisor &operator=(const Supervisor &) = delete;

  /// Runs \p Spec to an outcome in sandboxed workers, applying the retry
  /// and quarantine policy. Blocks until the outcome is ready. The
  /// returned outcome has Sandboxed set and carries either the worker's
  /// own result (byte-identical pre-serialized reports included) or a
  /// worker_* / teardown classification; QueueSeconds / RunSeconds are
  /// left for the scheduler to stamp.
  JobOutcome run(const JobSpec &Spec, CancellationToken &Token);

  /// Snapshot of the worker-fleet counters (the `health` line).
  SandboxHealth health() const;

private:
  const SchedulerConfig &Cfg;

  mutable std::mutex M;
  SandboxHealth Stats;
  /// Crash-loop quarantine: canonical program-shape hash -> total worker
  /// crashes attributed to it. Bounded at 4096 shapes.
  std::unordered_map<uint64_t, uint32_t> CrashCounts;

  /// What one driven attempt came back with.
  struct Attempt {
    WorkerExit Exit;
    /// Raw bytes the worker wrote on its outcome pipe (possibly partial).
    std::string Bytes;
    /// The hang cutoff (not the token) initiated the teardown.
    bool Hang = false;
  };

  /// Polls one worker to exit: drains its pipe, trips the SIGTERM ->
  /// SIGKILL escalation on cancel/hang, reaps, classifies.
  Attempt drive(const JobSpec &Spec, const WorkerHandle &H,
                CancellationToken &Token);

  bool quarantinedLocked(uint64_t Shape) const;
  /// Records one crash against \p Shape. \returns true when this crash
  /// pushed the shape over the quarantine threshold.
  bool recordCrash(uint64_t Shape);

  void emit(TraceEvent E) const;
};

} // namespace server
} // namespace termcheck

#endif // TERMCHECK_SERVER_SUPERVISOR_H
