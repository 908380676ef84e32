//===- server/Supervisor.cpp - Worker liveness and crash policy -----------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/Supervisor.h"

#include "support/CancellationToken.h"

#include <csignal>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace termcheck;
using namespace termcheck::server;

Supervisor::Supervisor(const SchedulerConfig &Cfg) : Cfg(Cfg) {}

void Supervisor::emit(TraceEvent E) const {
  if (Trace *T = Cfg.Tracer)
    T->emit(std::move(E));
}

bool Supervisor::quarantinedLocked(uint64_t Shape) const {
  if (Cfg.SandboxCfg.QuarantineThreshold == 0)
    return false;
  auto It = CrashCounts.find(Shape);
  return It != CrashCounts.end() &&
         It->second >= Cfg.SandboxCfg.QuarantineThreshold;
}

bool Supervisor::recordCrash(uint64_t Shape) {
  const SandboxConfig &SB = Cfg.SandboxCfg;
  if (SB.QuarantineThreshold == 0)
    return false;
  std::lock_guard<std::mutex> Lock(M);
  auto It = CrashCounts.find(Shape);
  if (It == CrashCounts.end()) {
    // Memory cap: beyond 4096 shapes, new ones are not tracked (existing
    // quarantine entries keep protecting the fleet).
    if (CrashCounts.size() >= 4096)
      return false;
    It = CrashCounts.emplace(Shape, 0u).first;
  }
  ++It->second;
  if (It->second == SB.QuarantineThreshold) {
    ++Stats.QuarantineSize;
    return true;
  }
  return false;
}

SandboxHealth Supervisor::health() const {
  std::lock_guard<std::mutex> Lock(M);
  return Stats;
}

Supervisor::Attempt Supervisor::drive(const JobSpec &Spec,
                                      const WorkerHandle &H,
                                      CancellationToken &Token) {
  const SandboxConfig &SB = Cfg.SandboxCfg;
  Attempt A;
  // Nonblocking pipe: the drain loop must never sleep inside read() while
  // it is also responsible for waitpid and signal escalation.
  int Flags = ::fcntl(H.OutFd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(H.OutFd, F_SETFL, Flags | O_NONBLOCK);

  // Wait between liveness checks (poll() on the pipe, or a sleep once it
  // hit EOF): a 25 ms cadence, rounded up.
  constexpr int PollMs = 26;
  Timer Run;
  Timer TermTimer;
  bool SentTerm = false, SentKill = false, Eof = false;
  int WStatus = 0;

  auto DrainOnce = [&] {
    if (Eof)
      return;
    char Buf[4096];
    for (;;) {
      ssize_t N = ::read(H.OutFd, Buf, sizeof(Buf));
      if (N > 0) {
        A.Bytes.append(Buf, static_cast<size_t>(N));
        continue;
      }
      if (N == 0)
        Eof = true;
      else if (errno == EINTR)
        continue;
      break; // EAGAIN (no data yet) or EOF or hard error
    }
  };

  for (;;) {
    if (!Eof) {
      pollfd P;
      P.fd = H.OutFd;
      P.events = POLLIN;
      P.revents = 0;
      ::poll(&P, 1, PollMs);
    } else {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(PollMs));
    }
    DrainOnce();

    pid_t R = ::waitpid(H.Pid, &WStatus, WNOHANG);
    if (R == H.Pid)
      break;
    if (R < 0 && errno != EINTR) {
      // Worker already reaped elsewhere (should not happen) -- synthesize
      // a crash classification rather than spinning forever.
      WStatus = 0;
      A.Exit.Kind = WorkerExitKind::Crashed;
      ::close(H.OutFd);
      return A;
    }

    bool WantDown = Token.cancelled();
    if (!WantDown && SB.HangGraceSeconds > 0 &&
        Run.seconds() > Spec.Opts.TimeoutSeconds + SB.HangGraceSeconds) {
      A.Hang = true;
      WantDown = true;
    }
    if (A.Hang)
      WantDown = true;
    if (WantDown) {
      if (!SentTerm) {
        ::kill(H.Pid, SIGTERM);
        SentTerm = true;
        TermTimer.reset();
        emit(TraceEvent(TraceEventKind::WorkerKill)
                 .with("job", Spec.Id)
                 .with("pid", static_cast<int64_t>(H.Pid))
                 .with("signal", SIGTERM)
                 .with("hang", A.Hang));
      } else if (!SentKill && TermTimer.seconds() > SB.TermGraceSeconds) {
        ::kill(H.Pid, SIGKILL);
        SentKill = true;
        emit(TraceEvent(TraceEventKind::WorkerKill)
                 .with("job", Spec.Id)
                 .with("pid", static_cast<int64_t>(H.Pid))
                 .with("signal", SIGKILL)
                 .with("hang", A.Hang));
      }
    }
  }
  // The worker is gone: every write end is closed, so the pipe drains to
  // a definitive EOF.
  for (;;) {
    char Buf[4096];
    ssize_t N = ::read(H.OutFd, Buf, sizeof(Buf));
    if (N > 0) {
      A.Bytes.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    break;
  }
  ::close(H.OutFd);
  A.Exit = classifyWorkerExit(WStatus, SentTerm, SentKill);
  return A;
}

/// Deterministic retry jitter: crash-looping neighbors submitted with
/// adjacent ids must not retry in lockstep, but the same id must back off
/// the same way every run (test reproducibility). Job ids are opaque bytes,
/// so this hashes every byte verbatim (FNV-1a) -- programShapeHash would
/// collapse whitespace and give ids differing only in whitespace identical
/// jitter, synchronizing their retries.
double termcheck::server::retryBackoffJitter(double Base, const std::string &Id,
                          uint32_t AttemptNo) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Id)
    H = (H ^ C) * 0x100000001b3ULL;
  H = (H ^ (AttemptNo + 1)) * 0x100000001b3ULL;
  return Base * (1.0 + static_cast<double>(H % 256) / 256.0);
}

namespace {

/// Sleeps in small slices so a cancel during backoff cuts the retry short.
void sleepWithToken(double Seconds, CancellationToken &Token) {
  Timer T;
  while (T.seconds() < Seconds && !Token.cancelled())
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

std::string describeCrash(const WorkerExit &E) {
  if (E.Signal != 0) {
    std::string S = "worker crashed with signal " + std::to_string(E.Signal);
    if (const char *Name = ::strsignal(E.Signal)) {
      S += " (";
      S += Name;
      S += ")";
    }
    return S;
  }
  if (E.ExitCode == WorkerExitSetup)
    return "worker could not read its job document";
  return "worker exited without an outcome document (exit code " +
         std::to_string(E.ExitCode) + ")";
}

} // namespace

JobOutcome Supervisor::run(const JobSpec &Spec, CancellationToken &Token) {
  const SandboxConfig &SB = Cfg.SandboxCfg;
  JobOutcome O;
  O.Id = Spec.Id;
  O.Source = Spec.Source;
  O.Opts = Spec.Opts;
  O.Sandboxed = true;

  const uint64_t Shape = programShapeHash(Spec.ProgramText);
  {
    std::lock_guard<std::mutex> Lock(M);
    if (quarantinedLocked(Shape)) {
      ++Stats.QuarantineShortCircuits;
      O.Status = JobStatus::Finished;
      O.Result.V = Verdict::Unknown;
      O.Quarantined = true;
      O.Diagnostic =
          "quarantined: workers for this program shape crashed repeatedly";
      O.Attempts = 0;
      emit(TraceEvent(TraceEventKind::WorkerQuarantine)
               .with("job", Spec.Id)
               .with("shape", static_cast<int64_t>(Shape))
               .with("short_circuit", true));
      return O;
    }
  }

  for (uint32_t AttemptNo = 0;; ++AttemptNo) {
    WorkerHandle H;
    std::string Err;
    if (!spawnWorker(Spec, Cfg, AttemptNo, H, &Err)) {
      O.Status = JobStatus::WorkerCrashed;
      O.Result.V = Verdict::Unknown;
      O.Attempts = AttemptNo + 1;
      O.Diagnostic = "sandbox spawn failed: " + Err;
      return O;
    }
    {
      std::lock_guard<std::mutex> Lock(M);
      ++Stats.Spawned;
      ++Stats.ActiveWorkers;
    }
    emit(TraceEvent(TraceEventKind::WorkerSpawn)
             .with("job", Spec.Id)
             .with("pid", static_cast<int64_t>(H.Pid))
             .with("attempt", static_cast<int64_t>(AttemptNo)));

    Attempt A = drive(Spec, H, Token);
    WorkerExit E = A.Exit;

    // A clean exit whose document died mid-write is a crash in disguise.
    JobOutcome Parsed = O;
    bool HaveDoc = false;
    if (E.Kind == WorkerExitKind::CleanOutcome) {
      HaveDoc = parseWorkerOutcome(A.Bytes, Parsed);
      if (!HaveDoc)
        E.Kind = WorkerExitKind::Crashed;
    }
    {
      std::lock_guard<std::mutex> Lock(M);
      --Stats.ActiveWorkers;
      switch (E.Kind) {
      case WorkerExitKind::Crashed:
        ++Stats.Crashed;
        break;
      case WorkerExitKind::OomKilled:
        ++Stats.OomKilled;
        break;
      case WorkerExitKind::CpuExceeded:
        ++Stats.CpuExceeded;
        break;
      case WorkerExitKind::KilledBySupervisor:
        ++Stats.KilledBySupervisor;
        break;
      case WorkerExitKind::CleanOutcome:
      case WorkerExitKind::SetupFailed:
        break;
      }
    }
    emit(TraceEvent(TraceEventKind::WorkerExit)
             .with("job", Spec.Id)
             .with("pid", static_cast<int64_t>(H.Pid))
             .with("kind", workerExitKindName(E.Kind))
             .with("signal", E.Signal)
             .with("exit_code", E.ExitCode)
             .with("attempt", static_cast<int64_t>(AttemptNo)));

    if (E.Kind == WorkerExitKind::CleanOutcome) {
      if (A.Hang) {
        // The hang cutoff initiated teardown but the worker still managed
        // a document; the job already blew past its budget.
        O.Status = JobStatus::DeadlineExceeded;
        O.Result.V = Verdict::Cancelled;
        O.Diagnostic = "worker ran past the hang cutoff";
        O.Attempts = AttemptNo + 1;
        return O;
      }
      Parsed.Attempts = AttemptNo + 1;
      return Parsed;
    }

    if (E.Kind == WorkerExitKind::KilledBySupervisor) {
      O.Attempts = AttemptNo + 1;
      O.Result.V = Verdict::Cancelled;
      if (A.Hang) {
        O.Status = JobStatus::DeadlineExceeded;
        O.Diagnostic = "worker hung past its analysis budget and was killed";
      } else {
        // The token asked for teardown; the scheduler restamps this as
        // deadline_exceeded or cancelled from the job's flags.
        O.Status = JobStatus::Cancelled;
        O.Diagnostic = "cancelled";
      }
      return O;
    }

    if (E.Kind == WorkerExitKind::CpuExceeded) {
      // Not retried (a fresh worker would burn the same CPU) and not a
      // quarantine mark (the program is expensive, not crashing).
      O.Status = JobStatus::WorkerCpuExceeded;
      O.Result.V = Verdict::Timeout;
      O.WorkerSignal = E.Signal;
      O.Attempts = AttemptNo + 1;
      O.Diagnostic = "worker exceeded its RLIMIT_CPU budget";
      return O;
    }

    // Crashed or OOM-killed.
    if (recordCrash(Shape))
      emit(TraceEvent(TraceEventKind::WorkerQuarantine)
               .with("job", Spec.Id)
               .with("shape", static_cast<int64_t>(Shape))
               .with("short_circuit", false));
    bool Quarantined;
    {
      std::lock_guard<std::mutex> Lock(M);
      Quarantined = quarantinedLocked(Shape);
    }
    if (AttemptNo < SB.MaxRetries && !Quarantined && !Token.cancelled()) {
      {
        std::lock_guard<std::mutex> Lock(M);
        ++Stats.Retries;
      }
      double Backoff =
          retryBackoffJitter(SB.RetryBackoffSeconds, Spec.Id, AttemptNo + 1);
      emit(TraceEvent(TraceEventKind::WorkerRetry)
               .with("job", Spec.Id)
               .with("attempt", static_cast<int64_t>(AttemptNo + 1))
               .with("backoff_s", Backoff));
      sleepWithToken(Backoff, Token);
      if (!Token.cancelled())
        continue;
    }
    O.Status = E.Kind == WorkerExitKind::OomKilled ? JobStatus::WorkerOom
                                                   : JobStatus::WorkerCrashed;
    O.Result.V = Verdict::Unknown;
    O.WorkerSignal = E.Signal;
    O.Attempts = AttemptNo + 1;
    O.Quarantined = Quarantined;
    O.Diagnostic = E.Kind == WorkerExitKind::OomKilled
                       ? "worker killed: address-space budget exhausted"
                       : describeCrash(E);
    return O;
  }
}
