//===- server/Sandbox.cpp - Forked-worker job execution -------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/Sandbox.h"

#include "server/Scheduler.h"
#include "support/CancellationToken.h"
#include "support/FaultInjector.h"

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace termcheck;
using namespace termcheck::server;

bool termcheck::server::sandboxSupported() {
#if defined(__unix__) || defined(__APPLE__)
  return true;
#else
  return false;
#endif
}

bool termcheck::server::sanitizersActive() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||     \
    __has_feature(memory_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

const char *termcheck::server::isolationModeName(IsolationMode M) {
  switch (M) {
  case IsolationMode::InProcess:
    return "inprocess";
  case IsolationMode::Sandbox:
    return "sandbox";
  case IsolationMode::Auto:
    return "auto";
  }
  return "?";
}

bool termcheck::server::isolationModeFromName(std::string_view Name,
                                              IsolationMode &M) {
  if (Name == "inprocess" || Name == "in-process")
    M = IsolationMode::InProcess;
  else if (Name == "sandbox")
    M = IsolationMode::Sandbox;
  else if (Name == "auto")
    M = IsolationMode::Auto;
  else
    return false;
  return true;
}

const char *termcheck::server::workerExitKindName(WorkerExitKind K) {
  switch (K) {
  case WorkerExitKind::CleanOutcome:
    return "clean_outcome";
  case WorkerExitKind::Crashed:
    return "crashed";
  case WorkerExitKind::OomKilled:
    return "oom_killed";
  case WorkerExitKind::CpuExceeded:
    return "cpu_exceeded";
  case WorkerExitKind::KilledBySupervisor:
    return "killed_by_supervisor";
  case WorkerExitKind::SetupFailed:
    return "setup_failed";
  }
  return "?";
}

uint64_t termcheck::server::programShapeHash(std::string_view ProgramText) {
  // Whitespace-insensitive canonical shape under the StateSet/interner
  // FNV-style mix (PR 5): reformatting a crashing program must land in the
  // same quarantine bucket.
  // Seed with a constant, not the raw byte count: the length of the text
  // varies with the very whitespace this hash is supposed to ignore.
  uint64_t H = 0x9e3779b97f4a7c15ULL;
  bool PendingSpace = false;
  bool AnyByte = false;
  for (unsigned char C : ProgramText) {
    if (C == ' ' || C == '\t' || C == '\n' || C == '\r') {
      PendingSpace = AnyByte;
      continue;
    }
    if (PendingSpace) {
      H = (H * 0x100000001b3ULL) ^ static_cast<uint64_t>(' ');
      PendingSpace = false;
    }
    H = (H * 0x100000001b3ULL) ^ static_cast<uint64_t>(C);
    AnyByte = true;
  }
  return H;
}

WorkerExit termcheck::server::classifyWorkerExit(int WStatus, bool SentTerm,
                                                 bool SentKill) {
  WorkerExit E;
  if (WIFEXITED(WStatus)) {
    E.ExitCode = WEXITSTATUS(WStatus);
    if (E.ExitCode == 0)
      E.Kind = WorkerExitKind::CleanOutcome;
    else if (E.ExitCode == WorkerExitOom)
      E.Kind = WorkerExitKind::OomKilled;
    else
      E.Kind = WorkerExitKind::Crashed; // WorkerExitSetup included
    return E;
  }
  if (WIFSIGNALED(WStatus)) {
    E.Signal = WTERMSIG(WStatus);
    if (E.Signal == SIGXCPU)
      E.Kind = WorkerExitKind::CpuExceeded;
    else if (E.Signal == SIGKILL)
      // SIGKILL we did not send is the kernel OOM killer's signature.
      E.Kind = SentKill ? WorkerExitKind::KilledBySupervisor
                        : WorkerExitKind::OomKilled;
    else if (E.Signal == SIGTERM && SentTerm)
      E.Kind = WorkerExitKind::KilledBySupervisor;
    else
      E.Kind = WorkerExitKind::Crashed;
    return E;
  }
  E.Kind = WorkerExitKind::Crashed;
  return E;
}

//===----------------------------------------------------------------------===//
// Child side
//===----------------------------------------------------------------------===//

namespace {

/// The worker's cancellation token; the SIGTERM/SIGINT handler trips it so
/// a cooperative teardown produces a real (CANCELLED) outcome document.
CancellationToken WorkerToken;

extern "C" void workerTermHandler(int) { WorkerToken.cancel(); }

/// Restores a workable signal state in the child: the daemon blocks
/// SIGINT/SIGTERM process-wide for its sigwait thread, and the mask is
/// inherited -- without unblocking, the supervisor's SIGTERM would never
/// be delivered and every teardown would escalate to SIGKILL.
void childInstallSignals() {
  sigset_t Set;
  sigemptyset(&Set);
  sigaddset(&Set, SIGINT);
  sigaddset(&Set, SIGTERM);
  pthread_sigmask(SIG_UNBLOCK, &Set, nullptr);
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = workerTermHandler;
  sigemptyset(&SA.sa_mask);
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

/// Closes every fd except \p Keep0 / \p Keep1 / stderr and points the
/// standard streams at /dev/null: a worker must not hold client sockets,
/// listener fds, or sibling workers' pipes open (a crashed sibling's pipe
/// would otherwise never report EOF).
void childScrubFds(int Keep0, int Keep1) {
  DIR *D = ::opendir("/proc/self/fd");
  if (D) {
    int DirFd = ::dirfd(D);
    std::vector<int> ToClose;
    while (dirent *E = ::readdir(D)) {
      char *End = nullptr;
      long Fd = std::strtol(E->d_name, &End, 10);
      if (End == E->d_name || *End != '\0')
        continue;
      if (Fd == Keep0 || Fd == Keep1 || Fd == 2 || Fd == DirFd)
        continue;
      ToClose.push_back(static_cast<int>(Fd));
    }
    for (int Fd : ToClose)
      ::close(Fd);
    ::closedir(D);
  }
  int Null = ::open("/dev/null", O_RDWR);
  if (Null >= 0) {
    if (Null != 0)
      ::dup2(Null, 0);
    if (Null != 1)
      ::dup2(Null, 1);
    if (Null > 1 && Null != Keep0 && Null != Keep1)
      ::close(Null);
  }
}

/// RLIMIT_CPU: soft at the budget (SIGXCPU, classified cpu_exceeded) with
/// a small hard backstop; RLIMIT_CORE: no core dumps from crashing
/// workers; RLIMIT_AS: fork-time VM + a 512 MiB budget (the inherited
/// address space -- thread stacks, allocator arenas -- is already
/// committed, so an absolute cap would kill every worker at startup),
/// skipped under sanitizers whose shadow mappings would trip it instantly.
void childApplyLimits(double CpuSeconds) {
  constexpr uint64_t AsBudgetBytes = 512ull << 20;
  rlimit RL;
  RL.rlim_cur = 0;
  RL.rlim_max = 0;
  ::setrlimit(RLIMIT_CORE, &RL);
  rlim_t Soft = static_cast<rlim_t>(std::ceil(CpuSeconds));
  if (Soft < 1)
    Soft = 1;
  RL.rlim_cur = Soft;
  RL.rlim_max = Soft + 5;
  ::setrlimit(RLIMIT_CPU, &RL);
  if (!sanitizersActive()) {
    std::ifstream Statm("/proc/self/statm");
    unsigned long long Pages = 0;
    if (Statm >> Pages) {
      long PageSize = ::sysconf(_SC_PAGESIZE);
      if (PageSize > 0) {
        unsigned long long Current =
            Pages * static_cast<unsigned long long>(PageSize);
        rlim_t Cap = static_cast<rlim_t>(Current + AsBudgetBytes);
        RL.rlim_cur = Cap;
        RL.rlim_max = Cap;
        ::setrlimit(RLIMIT_AS, &RL);
      }
    }
  }
}

bool writeAllFd(int Fd, const std::string &Data) {
  const char *P = Data.data();
  size_t N = Data.size();
  while (N != 0) {
    ssize_t W = ::write(Fd, P, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += static_cast<size_t>(W);
    N -= static_cast<size_t>(W);
  }
  return true;
}

bool readAllFd(int Fd, std::string &Out) {
  char Chunk[4096];
  for (;;) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return true;
    Out.append(Chunk, static_cast<size_t>(N));
  }
}

/// A bounded allocation bomb: allocates and touches memory until the
/// address-space rlimit (or the allocator) says no, then self-reports OOM.
/// The touch cap keeps sanitizer builds (no RLIMIT_AS there) from actually
/// exhausting a CI machine.
[[noreturn]] void allocationBomb() {
  constexpr size_t ChunkBytes = 8u << 20;
  constexpr size_t MaxBytes = 256u << 20;
  std::vector<char *> Keep;
  try {
    for (size_t Total = 0; Total < MaxBytes; Total += ChunkBytes) {
      char *P = new char[ChunkBytes];
      for (size_t I = 0; I < ChunkBytes; I += 4096)
        P[I] = static_cast<char>(I);
      Keep.push_back(P);
    }
  } catch (const std::bad_alloc &) {
  }
  ::_exit(WorkerExitOom);
}

/// The `test_fault` protocol option and the SandboxEntry chaos site both
/// funnel here: turn a fault flavor into a real process death. Only
/// sandboxed execution honors these -- the in-process path ignores
/// test_fault entirely, so a fault request can never take the daemon down.
[[noreturn]] void executeHardFault(FaultFlavor F) {
  switch (F) {
  case FaultFlavor::Overflow:
  case FaultFlavor::Invariant:
    ::raise(SIGSEGV);
    ::_exit(99); // unreachable unless the signal is blocked somehow
  case FaultFlavor::Foreign:
    std::abort();
  case FaultFlavor::Exhausted:
  case FaultFlavor::BadAlloc:
    allocationBomb();
  }
  ::_exit(99);
}

[[noreturn]] void executeTestFault(const std::string &Kind,
                                   uint32_t Attempt) {
  if (Kind == "segv")
    executeHardFault(FaultFlavor::Overflow);
  if (Kind == "abort")
    executeHardFault(FaultFlavor::Foreign);
  if (Kind == "oom")
    allocationBomb();
  if (Kind == "hang") {
    // Ignore the supervisor's SIGTERM so the SIGKILL escalation is what
    // actually ends this worker (the hang-detection test path).
    std::signal(SIGTERM, SIG_IGN);
    std::signal(SIGINT, SIG_IGN);
    for (;;)
      ::pause();
  }
  // "segv_first" handled by the caller (crashes only on attempt 0);
  // reaching here with it means attempt >= 1, which must not fault.
  (void)Attempt;
  ::_exit(WorkerExitSetup);
}

/// Child main: never returns. Everything runs under a top-level bad_alloc
/// net (the self-reported OOM exit) and a catch-all (classified crashed).
[[noreturn]] void runWorkerChild(int JobFd, int OutFd) {
  childInstallSignals();
  childScrubFds(JobFd, OutFd);
  try {
    std::string Bytes;
    if (!readAllFd(JobFd, Bytes))
      ::_exit(WorkerExitSetup);
    ::close(JobFd);

    json::ParseLimits PL;
    PL.MaxDepth = 64;
    json::Value Doc;
    if (!json::parse(Bytes, Doc, PL) || !Doc.isObject())
      ::_exit(WorkerExitSetup);

    auto Str = [&](const char *K) -> std::string {
      const json::Value *V = Doc.find(K);
      return V && V->isString() ? V->Str : std::string();
    };
    auto Num = [&](const json::Value &O, const char *K, double Def) {
      const json::Value *V = O.find(K);
      return V && V->isNumber() ? V->Num : Def;
    };
    JobSpec Spec;
    Spec.Id = Str("id");
    Spec.ProgramText = Str("program");
    Spec.Source = Str("source");
    if (Spec.ProgramText.empty())
      ::_exit(WorkerExitSetup);
    uint32_t Attempt = 0;
    SchedulerConfig Cfg;
    double CpuSeconds = 0;
    if (const json::Value *O = Doc.find("options")) {
      Spec.Opts.TimeoutSeconds = Num(*O, "timeout_s", 60);
      Spec.Opts.PortfolioK = static_cast<size_t>(Num(*O, "portfolio", 0));
      Spec.Opts.Deterministic = Num(*O, "deterministic", 0) != 0;
      Spec.Opts.NoNonterm = Num(*O, "no_nonterm", 0) != 0;
      Spec.Opts.MaxStates = static_cast<uint64_t>(Num(*O, "max_states", 0));
      if (const json::Value *TF = O->find("test_fault"))
        if (TF->isString())
          Spec.Opts.TestFault = TF->Str;
    }
    if (const json::Value *L = Doc.find("limits"))
      CpuSeconds = Num(*L, "cpu_s", 0);
    Attempt = static_cast<uint32_t>(Num(Doc, "attempt", 0));
    Cfg.DefaultMaxStatesPerJob =
        static_cast<uint64_t>(Num(Doc, "default_max_states", 0));

    childApplyLimits(CpuSeconds);

    if (!Spec.Opts.TestFault.empty() &&
        !(Spec.Opts.TestFault == "segv_first" && Attempt >= 1)) {
      if (Spec.Opts.TestFault == "segv_first")
        executeHardFault(FaultFlavor::Overflow);
      executeTestFault(Spec.Opts.TestFault, Attempt);
    }
    FaultFlavor Flavor;
    if (FaultInjector::consumeHard(FaultSite::SandboxEntry, Flavor))
      executeHardFault(Flavor);

    JobOutcome O;
    O.Id = Spec.Id;
    O.Source = Spec.Source;
    O.Opts = Spec.Opts;
    executeJobSync(Spec, Cfg, &WorkerToken, O);

    std::ostringstream OS;
    json::Writer W(OS, /*Pretty=*/false);
    W.beginObject();
    W.field("schema", "termcheckd-worker-outcome");
    W.field("status", O.Status == JobStatus::ParseError ? "parse_error"
                                                        : "finished");
    W.field("program", O.ProgramName);
    if (!O.Diagnostic.empty())
      W.field("diagnostic", O.Diagnostic);
    if (O.Status != JobStatus::ParseError) {
      W.field("verdict", verdictName(O.Result.V));
      std::ostringstream PS;
      writeOutcomeReport(PS, O, /*Pretty=*/true);
      W.field("report_pretty", PS.str());
      W.field("report_compact", outcomeReportCompact(O));
    }
    W.endObject();
    W.finish();
    writeAllFd(OutFd, OS.str());
    ::close(OutFd);
    ::_exit(0);
  } catch (const std::bad_alloc &) {
    ::_exit(WorkerExitOom);
  } catch (...) {
    ::_exit(88); // classified as crashed; executeJobSync contains the rest
  }
}

/// Serializes the parent->child job document.
std::string jobDocument(const JobSpec &Spec, const SchedulerConfig &Cfg,
                        uint32_t Attempt) {
  // Generous: sanitizer builds burn real CPU multiples.
  constexpr double CpuLimitSlackSeconds = 30;
  double CpuSeconds = Cfg.SandboxCfg.CpuLimitSeconds;
  if (CpuSeconds <= 0)
    CpuSeconds = Spec.Opts.TimeoutSeconds + CpuLimitSlackSeconds;
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("id", Spec.Id);
  W.field("program", Spec.ProgramText);
  W.field("source", Spec.Source);
  W.field("attempt", static_cast<int64_t>(Attempt));
  W.field("default_max_states",
          static_cast<int64_t>(Cfg.DefaultMaxStatesPerJob));
  W.key("options");
  W.beginObject();
  W.field("timeout_s", Spec.Opts.TimeoutSeconds);
  W.field("portfolio", static_cast<int64_t>(Spec.Opts.PortfolioK));
  W.field("deterministic", Spec.Opts.Deterministic ? 1 : 0);
  W.field("no_nonterm", Spec.Opts.NoNonterm ? 1 : 0);
  W.field("max_states", static_cast<int64_t>(Spec.Opts.MaxStates));
  if (!Spec.Opts.TestFault.empty())
    W.field("test_fault", Spec.Opts.TestFault);
  W.endObject();
  W.key("limits");
  W.beginObject();
  W.field("cpu_s", CpuSeconds);
  W.endObject();
  W.endObject();
  W.finish();
  return OS.str();
}

std::once_flag SigpipeOnce;

} // namespace

//===----------------------------------------------------------------------===//
// Parent side
//===----------------------------------------------------------------------===//

bool termcheck::server::spawnWorker(const JobSpec &Spec,
                                    const SchedulerConfig &Cfg,
                                    uint32_t Attempt, WorkerHandle &H,
                                    std::string *Error) {
  // A worker that dies before draining its job pipe turns the parent's
  // write into EPIPE; that must be an errno, not a process-killing
  // SIGPIPE.
  std::call_once(SigpipeOnce, [] { std::signal(SIGPIPE, SIG_IGN); });

  std::string Doc = jobDocument(Spec, Cfg, Attempt);
  int JobPipe[2], OutPipe[2];
  if (::pipe(JobPipe) != 0) {
    if (Error)
      *Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  if (::pipe(OutPipe) != 0) {
    if (Error)
      *Error = std::string("pipe: ") + std::strerror(errno);
    ::close(JobPipe[0]);
    ::close(JobPipe[1]);
    return false;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    if (Error)
      *Error = std::string("fork: ") + std::strerror(errno);
    ::close(JobPipe[0]);
    ::close(JobPipe[1]);
    ::close(OutPipe[0]);
    ::close(OutPipe[1]);
    return false;
  }
  if (Pid == 0)
    runWorkerChild(JobPipe[0], OutPipe[1]); // never returns
  ::close(JobPipe[0]);
  ::close(OutPipe[1]);
  // Ship the job. The child reads concurrently, so a document larger than
  // the pipe buffer still goes through; a child that crashed already
  // surfaces as EPIPE here and as a waitpid classification later.
  writeAllFd(JobPipe[1], Doc);
  ::close(JobPipe[1]);
  H.Pid = Pid;
  H.OutFd = OutPipe[0];
  return true;
}

bool termcheck::server::parseWorkerOutcome(const std::string &Bytes,
                                           JobOutcome &O) {
  json::ParseLimits PL;
  PL.MaxDepth = 64;
  json::Value Doc;
  if (!json::parse(Bytes, Doc, PL) || !Doc.isObject())
    return false;
  const json::Value *Status = Doc.find("status");
  if (!Status || !Status->isString())
    return false;
  if (Status->Str == "parse_error")
    O.Status = JobStatus::ParseError;
  else if (Status->Str == "finished")
    O.Status = JobStatus::Finished;
  else
    return false;
  if (const json::Value *P = Doc.find("program"))
    if (P->isString())
      O.ProgramName = P->Str;
  if (const json::Value *D = Doc.find("diagnostic"))
    if (D->isString())
      O.Diagnostic = D->Str;
  if (O.Status == JobStatus::Finished) {
    const json::Value *V = Doc.find("verdict");
    if (!V || !V->isString() || !verdictFromName(V->Str, O.Result.V))
      return false;
    const json::Value *RP = Doc.find("report_pretty");
    const json::Value *RC = Doc.find("report_compact");
    if (!RP || !RP->isString() || !RC || !RC->isString())
      return false;
    O.ReportPretty = RP->Str;
    O.ReportCompact = RC->Str;
  }
  return true;
}
