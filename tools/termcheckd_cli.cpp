//===- tools/termcheckd_cli.cpp - Batch analysis daemon -------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// `termcheckd`: the long-running batch analysis server. Speaks the
/// newline-delimited JSON protocol of server/Protocol.h on stdin/stdout,
/// and optionally on a Unix-domain socket, both feeding ONE scheduler
/// (server/Scheduler.h) so admission control is global. Its pool has one thread per core, and each running job holds
/// one pool thread.
///
///   termcheckd [options]
///     --max-active <N>     concurrent jobs (default 4)
///     --queue-cap <N>      admission queue bound (default 64);
///                          submissions beyond it are rejected with
///                          reason "queue_full"
///     --max-timeout <s>    clamp on per-job analysis budgets (default 300)
///     --unix-socket <path> also listen on a Unix-domain socket
///     --isolation <mode>   inprocess | sandbox | auto (default auto):
///                          run jobs in forked, rlimit-budgeted worker
///                          processes so an engine crash costs one job,
///                          not the daemon (DESIGN.md section 15)
///     --trace <file>       stream worker lifecycle + engine trace events
///                          as JSONL; a trace that cannot be written makes
///                          the exit code 1
///
/// Shutdown: EOF on stdin or an in-band {"op":"drain"} drains gracefully
/// (queued and running jobs finish, then a {"type":"drained"} line).
/// With the socket listener up, stdin EOF does NOT drain -- run socket-only
/// deployments as `termcheckd --unix-socket P < /dev/null` and stop them
/// with a signal or an in-band drain. A signal-driven shutdown may emit
/// the drained marker twice (stdio session and signal path both report);
/// consumers should stop at the first.
/// The first SIGINT/SIGTERM also drains gracefully; a second one upgrades
/// to a hard drain (queued jobs are cancelled, running analyses unwind at
/// their next cancellation poll). Either way the process exits 0 only
/// after every accepted job produced its result line and the trace, if
/// any, was written.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "support/Trace.h"

#include <atomic>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

using namespace termcheck;
using namespace termcheck::server;

namespace {

void usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --max-active <N>      concurrent jobs (default 4)\n"
               "  --queue-cap <N>       admission queue bound (default 64)\n"
               "  --max-timeout <s>     per-job budget clamp (default 300)\n"
               "  --unix-socket <path>  listen on a Unix-domain socket\n"
               "  --isolation <mode>    inprocess | sandbox | auto "
               "(default auto)\n"
               "  --trace <file>        JSONL worker lifecycle trace\n",
               Prog);
}

[[noreturn]] void badValue(const char *Flag, const char *Val,
                           const char *Expected) {
  std::fprintf(stderr,
               "termcheckd: error: invalid value '%s' for %s (expected %s)\n",
               Val, Flag, Expected);
  std::exit(4);
}

long parseCount(const char *Flag, const char *Val, long Min, long Max,
                const char *Expected) {
  errno = 0;
  char *End = nullptr;
  long N = std::strtol(Val, &End, 10);
  if (End == Val || *End != '\0' || errno == ERANGE || N < Min || N > Max)
    badValue(Flag, Val, Expected);
  return N;
}

double parseSeconds(const char *Flag, const char *Val) {
  errno = 0;
  char *End = nullptr;
  double D = std::strtod(Val, &End);
  if (End == Val || *End != '\0' || errno == ERANGE || !(D >= 0) || D > 1e9)
    badValue(Flag, Val, "a number of seconds in [0, 1e9]");
  return D;
}

} // namespace

int main(int Argc, char **Argv) {
  ServerOptions Opts;
  // The daemon defaults to Auto isolation: non-deterministic jobs run in
  // forked, rlimit-budgeted workers; deterministic jobs keep the pinned
  // in-process byte-identity path. (The library default stays InProcess so
  // embedders opt in explicitly.)
  Opts.Sched.Isolation = server::IsolationMode::Auto;
  std::string TracePath;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto NeedsValue = [&](const char *Name) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Name);
        std::exit(4);
      }
      return Argv[++I];
    };
    if (std::strcmp(Arg, "--max-active") == 0)
      Opts.Sched.MaxActiveJobs = static_cast<size_t>(
          parseCount("--max-active", NeedsValue("--max-active"), 1, 1 << 20,
                     "a positive job count"));
    else if (std::strcmp(Arg, "--queue-cap") == 0)
      Opts.Sched.QueueCapacity = static_cast<size_t>(
          parseCount("--queue-cap", NeedsValue("--queue-cap"), 1, 1 << 20,
                     "a positive queue bound"));
    else if (std::strcmp(Arg, "--max-timeout") == 0)
      Opts.Sched.MaxTimeoutSeconds =
          parseSeconds("--max-timeout", NeedsValue("--max-timeout"));
    else if (std::strcmp(Arg, "--unix-socket") == 0)
      Opts.UnixSocketPath = NeedsValue("--unix-socket");
    else if (std::strcmp(Arg, "--isolation") == 0) {
      const char *V = NeedsValue("--isolation");
      if (!server::isolationModeFromName(V, Opts.Sched.Isolation))
        badValue("--isolation", V, "one of inprocess|sandbox|auto");
    } else if (std::strcmp(Arg, "--trace") == 0)
      TracePath = NeedsValue("--trace");
    else if (std::strcmp(Arg, "--help") == 0 ||
               std::strcmp(Arg, "-h") == 0) {
      usage(Argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      usage(Argv[0]);
      return 4;
    }
  }

  // Trace plumbing must outlive the Server (the scheduler's supervisor
  // emits worker lifecycle events until its destructor joins).
  std::ofstream TraceFile;
  std::unique_ptr<JsonlSink> TraceSinkPtr;
  std::unique_ptr<Trace> Tracer;
  if (!TracePath.empty()) {
    TraceFile.open(TracePath);
    if (!TraceFile) {
      std::fprintf(stderr, "termcheckd: error: cannot open trace file '%s'\n",
                   TracePath.c_str());
      return 1;
    }
    TraceSinkPtr = std::make_unique<JsonlSink>(TraceFile);
    Tracer = std::make_unique<Trace>(*TraceSinkPtr);
    Opts.Sched.Tracer = Tracer.get();
  }

  // Once a drain has finished no job emits events any more: flush the
  // trace then, and report a stream that could not be written. A signal
  // that drains a socket-only daemon ends both the stdio session and the
  // signal helper, so the two may flush at the same time.
  std::mutex TraceFlushM;
  auto TraceWritten = [&TraceFile, &TracePath, &TraceFlushM] {
    std::lock_guard<std::mutex> Lock(TraceFlushM);
    if (TracePath.empty() || TraceFile.flush())
      return true;
    std::fprintf(stderr,
                 "termcheckd: error: --trace: cannot write trace to '%s'\n",
                 TracePath.c_str());
    return false;
  };

  // Route SIGINT/SIGTERM through a dedicated sigwait thread (they are
  // blocked process-wide first, so every thread the server spawns inherits
  // the mask): signal-handler context never touches the scheduler.
  sigset_t SigSet;
  sigemptyset(&SigSet);
  sigaddset(&SigSet, SIGINT);
  sigaddset(&SigSet, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &SigSet, nullptr);

  Server S(Opts);
  if (!Opts.UnixSocketPath.empty()) {
    std::string Error;
    if (!S.startListeners(&Error)) {
      std::fprintf(stderr, "termcheckd: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "termcheckd: listening on %s\n",
                 Opts.UnixSocketPath.c_str());
  }

  std::atomic<int> Signals{0};
  std::thread([&S, &SigSet, &Signals, &TraceWritten] {
    for (;;) {
      int Got = 0;
      if (sigwait(&SigSet, &Got) != 0)
        return;
      int N = ++Signals;
      if (N == 1) {
        // First signal: graceful. A helper does the (possibly long) wait
        // so this loop stays responsive to the escalation signal.
        std::fprintf(stderr,
                     "termcheckd: draining (signal again to cancel "
                     "in-flight jobs)\n");
        std::thread([&S, &TraceWritten] {
          S.drain(/*Hard=*/false);
          S.stopListeners();
          bool TraceOk = TraceWritten();
          std::fputs("{\"type\":\"drained\"}\n", stdout);
          std::fflush(stdout);
          std::_Exit(TraceOk ? 0 : 1);
        }).detach();
      } else {
        // Second signal: upgrade to hard; the drain helper's awaitIdle
        // returns once the cancelled jobs unwind, and it exits for us.
        std::fprintf(stderr, "termcheckd: hard drain\n");
        S.scheduler().beginDrain(/*Hard=*/true);
      }
    }
  }).detach();

  int RC = S.serveStdio(std::cin, std::cout);
  S.stopListeners();
  if (!TraceWritten())
    return 1;
  return RC;
}
