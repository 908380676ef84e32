//===- tools/termcheck_batch_cli.cpp - Batch submission client ------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// `termcheck-batch`: submit a directory (or manifest) of WHILE programs
/// to a `termcheckd` instance, collect the verdicts, and optionally diff
/// them against an EXPECTATIONS.txt oracle.
///
///   termcheck-batch [options] <corpus-dir | manifest-file>
///     --spawn <termcheckd>  fork/exec the daemon and speak over pipes
///     --connect unix:<path> connect to a daemon's Unix socket instead
///     --window <N>          max outstanding submissions (default 16)
///     --verdicts <file>     write sorted "name VERDICT" lines ('-' =
///                           stdout); the file is valid input for
///                           tools/check_expectations.sh --verdicts
///     --expect <file>       compare against an expectations file; any
///                           mismatch, missing oracle, or stale oracle
///                           entry makes the exit code 1
///     --timeout <s> --deadline <s> --portfolio <K>
///     --deterministic --no-nonterm --max-states <N>
///                           per-job analysis options, forwarded verbatim
///                           (a portfolio job runs its entrants in roster
///                           order, as `termcheck --jobs 1` does)
///     --max-active <N> --queue-cap <N> --isolation <mode>
///                           forwarded to a --spawn'ed daemon
///     --health              probe mode: send {"op":"health"}, print the
///                           daemon's health line, and exit (no corpus)
///     --inject-crash <N>    test hook: ask the daemon to crash the
///                           sandboxed worker of every Nth job
///                           (options.test_fault = "segv")
///     --quiet               suppress per-program verdict lines and the
///                           summary (failed and rejected jobs are
///                           still named on stderr)
///
/// Backpressure is part of the protocol, not an error: a `queue_full`
/// rejection re-queues the program and stalls further submission until
/// the next result frees a slot.
///
/// A manifest file is one program path per line ('#' comments allowed).
///
/// Exit: 0 all programs analyzed (and matched, with --expect); 1 verdict
/// mismatch or per-program failure; 2 transport/protocol failure; 4 usage.
///
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"
#include "support/Error.h"
#include "termination/Portfolio.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace termcheck;
using namespace termcheck::server;

namespace {

void usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [options] <corpus-dir | manifest-file>\n"
      "  --spawn <termcheckd>   fork/exec the daemon over pipes\n"
      "  --connect unix:<path>  connect to a daemon's Unix socket\n"
      "  --window <N>           max outstanding submissions (default 16)\n"
      "  --verdicts <file>      write sorted \"name VERDICT\" lines\n"
      "  --expect <file>        diff verdicts against an oracle file\n"
      "  --timeout <s>          per-job analysis budget\n"
      "  --deadline <s>         per-job admission-to-completion deadline\n"
      "  --portfolio <K>        race the first K configurations\n"
      "  --deterministic        byte-reproducible reports\n"
      "  --no-nonterm           disable the nontermination prover\n"
      "  --max-states <N>       per-subtraction live-state cap\n"
      "  --max-active/--queue-cap/--isolation\n"
      "                         forwarded to --spawn\n"
      "  --health               print the daemon's health line and exit\n"
      "  --inject-crash <N>     crash the worker of every Nth job (test "
      "hook)\n"
      "  --quiet                suppress per-program verdicts and the\n"
      "                         summary (failures still go to stderr)\n",
      Prog);
}

[[noreturn]] void badValue(const char *Flag, const char *Val,
                           const char *Expected) {
  std::fprintf(
      stderr,
      "termcheck-batch: error: invalid value '%s' for %s (expected %s)\n",
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

struct ProgramFile {
  std::string Path;
  std::string Stem; // file name minus .while -- failure-reporting key
  std::string Text;
};

/// One program awaiting, in flight, or done.
struct JobState {
  size_t Index;       // into Programs
  std::string Id;     // wire id
  bool Resolved = false;
  std::string Name;   // parsed program name from the result report
  std::string Verdict; // TERMINATING/... or a FAILED_* pseudo-verdict
};

/// Duplex byte stream to the daemon (pipes or a socket) plus the child
/// pid when spawned.
struct Transport {
  int ReadFd = -1;
  int WriteFd = -1;
  pid_t Child = -1;
  std::string ReadBuf;

  bool writeAll(const std::string &Data) {
    const char *P = Data.data();
    size_t N = Data.size();
    while (N != 0) {
      ssize_t W = ::write(WriteFd, P, N);
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

  /// Blocking read of one '\n'-terminated line (without the newline).
  /// \returns false on EOF/error.
  bool readLine(std::string &Out) {
    for (;;) {
      size_t Pos = ReadBuf.find('\n');
      if (Pos != std::string::npos) {
        Out = ReadBuf.substr(0, Pos);
        ReadBuf.erase(0, Pos + 1);
        return true;
      }
      char Chunk[4096];
      ssize_t N = ::read(ReadFd, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      ReadBuf.append(Chunk, static_cast<size_t>(N));
    }
  }

  void closeAll() {
    if (WriteFd >= 0 && WriteFd != ReadFd)
      ::close(WriteFd);
    if (ReadFd >= 0)
      ::close(ReadFd);
    ReadFd = WriteFd = -1;
  }
};

bool spawnDaemon(const char *Path, const std::vector<std::string> &Args,
                 Transport &T) {
  int ToChild[2], FromChild[2];
  if (::pipe(ToChild) != 0 || ::pipe(FromChild) != 0) {
    std::perror("termcheck-batch: pipe");
    return false;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    std::perror("termcheck-batch: fork");
    return false;
  }
  if (Pid == 0) {
    ::dup2(ToChild[0], 0);
    ::dup2(FromChild[1], 1);
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    ::close(FromChild[0]);
    ::close(FromChild[1]);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(Path));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execvp(Path, Argv.data());
    std::fprintf(stderr, "termcheck-batch: cannot exec %s: %s\n", Path,
                 std::strerror(errno));
    ::_exit(127);
  }
  ::close(ToChild[0]);
  ::close(FromChild[1]);
  T.WriteFd = ToChild[1];
  T.ReadFd = FromChild[0];
  T.Child = Pid;
  return true;
}

bool connectDaemon(const std::string &Path, Transport &T) {
  sockaddr_un SA{};
  SA.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(SA.sun_path)) {
    std::fprintf(stderr, "termcheck-batch: socket path too long\n");
    return false;
  }
  std::strncpy(SA.sun_path, Path.c_str(), sizeof(SA.sun_path) - 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0 ||
      ::connect(Fd, reinterpret_cast<sockaddr *>(&SA), sizeof(SA)) != 0) {
    std::fprintf(stderr, "termcheck-batch: cannot connect to %s: %s\n",
                 Path.c_str(), std::strerror(errno));
    if (Fd >= 0)
      ::close(Fd);
    return false;
  }
  T.ReadFd = T.WriteFd = Fd;
  return true;
}

std::string submitLine(const std::string &Id, const ProgramFile &P,
                       const JobOptions &O, bool SendOptions) {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("op", "submit");
  W.field("id", Id);
  W.field("program", P.Text);
  W.field("source", P.Path);
  if (SendOptions) {
    W.key("options");
    W.beginObject();
    W.field("timeout_s", O.TimeoutSeconds);
    if (O.DeadlineSeconds > 0)
      W.field("deadline_s", O.DeadlineSeconds);
    if (O.PortfolioK != 0)
      W.field("portfolio", static_cast<int64_t>(O.PortfolioK));
    if (O.Deterministic)
      W.field("deterministic", true);
    if (O.NoNonterm)
      W.field("no_nonterm", true);
    if (O.MaxStates != 0)
      W.field("max_states", static_cast<int64_t>(O.MaxStates));
    if (!O.TestFault.empty())
      W.field("test_fault", O.TestFault);
    W.endObject();
  }
  W.endObject();
  W.finish();
  return OS.str();
}

/// --health probe: one request, one matching response, done. Returns the
/// process exit code.
int probeHealth(Transport &T) {
  if (!T.writeAll("{\"op\":\"health\"}\n")) {
    std::fprintf(stderr, "termcheck-batch: daemon write failed\n");
    return 2;
  }
  json::ParseLimits RespLimits;
  RespLimits.MaxDepth = 64;
  std::string Line;
  while (T.readLine(Line)) {
    json::Value Doc;
    if (!json::parse(Line, Doc, RespLimits) || !Doc.isObject())
      continue; // skip lines that are not JSON objects
    const json::Value *TypeV = Doc.find("type");
    if (!TypeV || !TypeV->isString())
      continue;
    if (TypeV->Str == "health") {
      std::printf("%s\n", Line.c_str());
      return 0;
    }
    if (TypeV->Str == "error") {
      const json::Value *D = Doc.find("detail");
      std::fprintf(stderr, "termcheck-batch: server error: %s\n",
                   D && D->isString() ? D->Str.c_str() : "(no detail)");
      return 2;
    }
  }
  std::fprintf(stderr,
               "termcheck-batch: daemon closed the stream before the "
               "health response\n");
  return 2;
}

/// The shared comparison semantics of tools/check_expectations.sh: every
/// verdict needs a matching oracle line, every oracle line a verdict.
int diffAgainstExpectations(const std::map<std::string, std::string> &Got,
                            const std::string &ExpectPath) {
  std::ifstream In(ExpectPath);
  if (!In) {
    std::fprintf(stderr, "termcheck-batch: cannot open %s\n",
                 ExpectPath.c_str());
    return 2;
  }
  std::map<std::string, std::string> Want;
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream LS(Line);
    std::string Name, Verdict;
    if (!(LS >> Name >> Verdict) || Name.empty() || Name[0] == '#')
      continue;
    Want[Name] = Verdict;
  }
  int Fail = 0;
  for (const auto &[Name, Verdict] : Got) {
    auto It = Want.find(Name);
    if (It == Want.end()) {
      std::fprintf(stderr, "FAIL %s: no expectation recorded\n",
                   Name.c_str());
      Fail = 1;
    } else if (It->second != Verdict) {
      std::fprintf(stderr, "FAIL %s: verdict %s, expected %s\n",
                   Name.c_str(), Verdict.c_str(), It->second.c_str());
      Fail = 1;
    }
  }
  for (const auto &[Name, Verdict] : Want)
    if (!Got.count(Name)) {
      std::fprintf(stderr, "FAIL stale expectation for '%s' (no verdict)\n",
                   Name.c_str());
      Fail = 1;
    }
  return Fail;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *SpawnPath = nullptr, *ConnectPath = nullptr;
  const char *VerdictsPath = nullptr, *ExpectPath = nullptr;
  const char *InputPath = nullptr;
  JobOptions JO;
  bool Quiet = false;
  bool HealthProbe = false;
  size_t Window = 16;
  size_t InjectCrashEvery = 0;
  std::vector<std::string> DaemonArgs;

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto NeedsValue = [&](const char *Name) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Name);
        std::exit(4);
      }
      return Argv[++I];
    };
    if (std::strcmp(Arg, "--spawn") == 0)
      SpawnPath = NeedsValue("--spawn");
    else if (std::strcmp(Arg, "--connect") == 0) {
      const char *V = NeedsValue("--connect");
      if (std::strncmp(V, "unix:", 5) != 0)
        badValue("--connect", V, "unix:<path>");
      ConnectPath = V + 5;
    }
    else if (std::strcmp(Arg, "--window") == 0)
      Window = static_cast<size_t>(parseCount(
          "--window", NeedsValue("--window"), 1, 4096, "a window in "
                                                       "[1, 4096]"));
    else if (std::strcmp(Arg, "--verdicts") == 0)
      VerdictsPath = NeedsValue("--verdicts");
    else if (std::strcmp(Arg, "--expect") == 0)
      ExpectPath = NeedsValue("--expect");
    else if (std::strcmp(Arg, "--timeout") == 0)
      JO.TimeoutSeconds = parseSeconds("--timeout", NeedsValue("--timeout"));
    else if (std::strcmp(Arg, "--deadline") == 0)
      JO.DeadlineSeconds =
          parseSeconds("--deadline", NeedsValue("--deadline"));
    else if (std::strcmp(Arg, "--portfolio") == 0) {
      const std::string Range = "a configuration count in [1, " +
                                std::to_string(PortfolioRosterSize) + "]";
      JO.PortfolioK = static_cast<size_t>(
          parseCount("--portfolio", NeedsValue("--portfolio"), 1,
                     static_cast<long>(PortfolioRosterSize), Range.c_str()));
    } else if (std::strcmp(Arg, "--deterministic") == 0)
      JO.Deterministic = true;
    else if (std::strcmp(Arg, "--no-nonterm") == 0)
      JO.NoNonterm = true;
    else if (std::strcmp(Arg, "--max-states") == 0)
      JO.MaxStates = static_cast<uint64_t>(
          parseCount("--max-states", NeedsValue("--max-states"), 0,
                     LONG_MAX, "a state count >= 0"));
    else if (std::strcmp(Arg, "--max-active") == 0) {
      DaemonArgs.push_back("--max-active");
      DaemonArgs.push_back(NeedsValue("--max-active"));
    } else if (std::strcmp(Arg, "--queue-cap") == 0) {
      DaemonArgs.push_back("--queue-cap");
      DaemonArgs.push_back(NeedsValue("--queue-cap"));
    } else if (std::strcmp(Arg, "--isolation") == 0) {
      DaemonArgs.push_back("--isolation");
      DaemonArgs.push_back(NeedsValue("--isolation"));
    } else if (std::strcmp(Arg, "--health") == 0)
      HealthProbe = true;
    else if (std::strcmp(Arg, "--inject-crash") == 0)
      InjectCrashEvery = static_cast<size_t>(
          parseCount("--inject-crash", NeedsValue("--inject-crash"), 1,
                     1 << 20, "a positive job stride"));
    else if (std::strcmp(Arg, "--quiet") == 0)
      Quiet = true;
    else if (std::strcmp(Arg, "--help") == 0 || std::strcmp(Arg, "-h") == 0) {
      usage(Argv[0]);
      return 0;
    } else if (Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      usage(Argv[0]);
      return 4;
    } else if (InputPath) {
      std::fprintf(stderr, "error: more than one input\n");
      return 4;
    } else
      InputPath = Arg;
  }
  if ((!InputPath && !HealthProbe) || (!SpawnPath && !ConnectPath) ||
      (SpawnPath && ConnectPath)) {
    usage(Argv[0]);
    return 4;
  }

  // Probe mode needs no corpus: connect, ask, print, leave.
  if (HealthProbe) {
    Transport T;
    if (SpawnPath) {
      if (!spawnDaemon(SpawnPath, DaemonArgs, T))
        return 2;
    } else if (!connectDaemon(ConnectPath, T))
      return 2;
    int RC = probeHealth(T);
    if (T.Child > 0) {
      // Stop the daemon we spawned for the probe.
      T.writeAll("{\"op\":\"drain\"}\n");
      std::string Line;
      while (T.readLine(Line))
        if (Line.find("\"drained\"") != std::string::npos)
          break;
    }
    T.closeAll();
    if (T.Child > 0) {
      int WStatus = 0;
      ::waitpid(T.Child, &WStatus, 0);
    }
    return RC;
  }

  // Collect the corpus: every *.while of a directory (sorted for
  // reproducible ids), or the paths a manifest lists.
  std::vector<ProgramFile> Programs;
  std::error_code EC;
  std::vector<std::string> Paths;
  if (std::filesystem::is_directory(InputPath, EC)) {
    for (const auto &Entry : std::filesystem::directory_iterator(InputPath))
      if (Entry.path().extension() == ".while")
        Paths.push_back(Entry.path().string());
    std::sort(Paths.begin(), Paths.end());
  } else {
    std::ifstream In(InputPath);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", InputPath);
      return 4;
    }
    std::string Line;
    while (std::getline(In, Line)) {
      size_t B = Line.find_first_not_of(" \t");
      if (B == std::string::npos || Line[B] == '#')
        continue;
      Paths.push_back(Line.substr(B));
    }
  }
  for (const std::string &Path : Paths) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "error: cannot open program %s\n", Path.c_str());
      return 4;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Programs.push_back(
        {Path, std::filesystem::path(Path).stem().string(), Buf.str()});
  }
  if (Programs.empty()) {
    std::fprintf(stderr, "error: no programs in %s\n", InputPath);
    return 4;
  }

  Transport T;
  if (SpawnPath) {
    if (!spawnDaemon(SpawnPath, DaemonArgs, T))
      return 2;
  } else if (!connectDaemon(ConnectPath, T))
    return 2;

  // Submission loop: keep up to Window jobs outstanding; queue_full
  // rejections re-queue the program and stall submission until a result
  // frees a server slot.
  std::vector<JobState> Jobs(Programs.size());
  std::map<std::string, size_t> ById;
  std::deque<size_t> Todo;
  for (size_t I = 0; I < Programs.size(); ++I) {
    Jobs[I].Index = I;
    Jobs[I].Id = "j" + std::to_string(I);
    ById[Jobs[I].Id] = I;
    Todo.push_back(I);
  }
  size_t Outstanding = 0, Resolved = 0;
  bool Stalled = false;
  int TransportError = 0;
  json::ParseLimits RespLimits;
  RespLimits.MaxDepth = 64;

  auto FailJob = [&](size_t I, const std::string &Pseudo) {
    if (!Jobs[I].Resolved) {
      Jobs[I].Resolved = true;
      Jobs[I].Name = Programs[I].Stem;
      Jobs[I].Verdict = Pseudo;
      ++Resolved;
    }
  };

  while (Resolved < Jobs.size() && TransportError == 0) {
    while (!Stalled && Outstanding < Window && !Todo.empty()) {
      size_t I = Todo.front();
      Todo.pop_front();
      JobOptions Per = JO;
      if (InjectCrashEvery != 0 && I % InjectCrashEvery == 0)
        Per.TestFault = "segv";
      if (!T.writeAll(submitLine(Jobs[I].Id, Programs[I], Per,
                                 /*SendOptions=*/true))) {
        std::fprintf(stderr, "termcheck-batch: daemon write failed\n");
        TransportError = 2;
        break;
      }
      ++Outstanding;
    }
    if (TransportError || Resolved == Jobs.size())
      break;

    std::string Line;
    if (!T.readLine(Line)) {
      std::fprintf(stderr,
                   "termcheck-batch: daemon closed the stream with %zu "
                   "jobs unresolved\n",
                   Jobs.size() - Resolved);
      TransportError = 2;
      break;
    }
    json::Value Doc;
    std::string PErr;
    if (!json::parse(Line, Doc, RespLimits, &PErr) || !Doc.isObject()) {
      std::fprintf(stderr, "termcheck-batch: unparseable response: %s\n",
                   PErr.c_str());
      TransportError = 2;
      break;
    }
    const json::Value *TypeV = Doc.find("type");
    if (!TypeV || !TypeV->isString())
      continue;
    const std::string &Type = TypeV->Str;
    const json::Value *IdV = Doc.find("id");
    std::string Id = IdV && IdV->isString() ? IdV->Str : "";

    if (Type == "accepted" || Type == "stats" || Type == "draining" ||
        Type == "cancel_ack")
      continue;
    if (Type == "error") {
      const json::Value *D = Doc.find("detail");
      std::fprintf(stderr, "termcheck-batch: server error: %s\n",
                   D && D->isString() ? D->Str.c_str() : "(no detail)");
      TransportError = 2;
      break;
    }
    auto It = ById.find(Id);
    if (It == ById.end())
      continue;
    size_t I = It->second;

    if (Type == "rejected") {
      const json::Value *ReasonV = Doc.find("reason");
      std::string Reason =
          ReasonV && ReasonV->isString() ? ReasonV->Str : "unknown";
      --Outstanding;
      if (Reason == "queue_full") {
        // Backpressure: try again once a result frees a slot.
        Todo.push_front(I);
        Stalled = true;
      } else {
        // Failures are reported even under --quiet: a run that exits 1
        // must name the jobs that made it fail.
        FailJob(I, "FAILED_REJECTED_" + Reason);
        std::fprintf(stderr, "rejected %s: %s\n", Programs[I].Stem.c_str(),
                     Reason.c_str());
      }
      continue;
    }
    if (Type != "result")
      continue;

    Stalled = false;
    --Outstanding;
    const json::Value *StatusV = Doc.find("status");
    std::string Status =
        StatusV && StatusV->isString() ? StatusV->Str : "unknown";
    if (Status == "finished") {
      const json::Value *VerdictV = Doc.find("verdict");
      std::string Name = Programs[I].Stem;
      if (const json::Value *Report = Doc.find("report"))
        if (const json::Value *PN = Report->find("program"))
          if (PN->isString())
            Name = PN->Str;
      Jobs[I].Resolved = true;
      Jobs[I].Name = Name;
      Jobs[I].Verdict =
          VerdictV && VerdictV->isString() ? VerdictV->Str : "UNKNOWN";
      ++Resolved;
      if (!Quiet)
        std::printf("%s: %s\n", Name.c_str(), Jobs[I].Verdict.c_str());
    } else {
      FailJob(I, "FAILED_" + Status);
      const json::Value *D = Doc.find("diagnostic");
      std::fprintf(stderr, "failed %s: %s%s%s\n", Programs[I].Stem.c_str(),
                   Status.c_str(), D && D->isString() ? ": " : "",
                   D && D->isString() ? D->Str.c_str() : "");
    }
  }

  // Orderly shutdown: ask the daemon to drain and wait for the `drained`
  // marker so its side of the pipe closes cleanly.
  if (TransportError == 0) {
    T.writeAll("{\"op\":\"drain\"}\n");
    std::string Line;
    while (T.readLine(Line))
      if (Line.find("\"drained\"") != std::string::npos)
        break;
  }
  T.closeAll();
  if (T.Child > 0) {
    int WStatus = 0;
    ::waitpid(T.Child, &WStatus, 0);
  }
  if (TransportError)
    return TransportError;

  std::map<std::string, std::string> Verdicts;
  for (const JobState &J : Jobs)
    Verdicts[J.Name] = J.Verdict;

  if (VerdictsPath) {
    std::ostream *OS = &std::cout;
    std::ofstream File;
    if (std::strcmp(VerdictsPath, "-") != 0) {
      File.open(VerdictsPath);
      if (!File) {
        std::fprintf(stderr, "error: cannot open %s\n", VerdictsPath);
        return 2;
      }
      OS = &File;
    }
    for (const auto &[Name, Verdict] : Verdicts)
      *OS << Name << ' ' << Verdict << '\n';
  }

  int RC = 0;
  for (const JobState &J : Jobs)
    if (J.Verdict.rfind("FAILED_", 0) == 0)
      RC = 1;
  if (ExpectPath) {
    int DiffRC = diffAgainstExpectations(Verdicts, ExpectPath);
    if (DiffRC != 0)
      RC = DiffRC;
    else if (RC == 0 && !Quiet)
      std::fprintf(stderr, "termcheck-batch: %zu programs, all verdicts "
                           "match expectations\n",
                   Jobs.size());
  }
  return RC;
}
