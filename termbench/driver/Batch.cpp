//===- driver/Batch.cpp - The `batch` workload ----------------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The real `termcheckd` binary with its default options, driven by this
/// process as one client over the daemon's stdin/stdout: a closed loop
/// with 8 jobs outstanding over the 1000 programs batchPrograms(seed)
/// draws, each checked against its exact oracle (README.md, "batch").
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"
#include "Spans.h"

#include "benchgen/CorpusEmit.h"
#include "server/Scheduler.h"
#include "termination/Analyzer.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <deque>
#include <memory>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace termbench;
using namespace termcheck;
namespace json = termcheck::json;

namespace {

constexpr size_t Jobs = 1000;
constexpr size_t Outstanding = 8;
constexpr int SetupRepeats = 3;
/// The longest the client waits for any one line from the daemon, for the
/// daemon to exit once its stdin is closed, and for a whole pass: together
/// they keep a run within its time limit whatever the daemon does.
constexpr double ReplyTimeoutS = 60;
constexpr double DrainTimeoutS = 10;
constexpr double PassTimeoutS = 120;

/// A termcheckd child process speaking the line protocol on its stdio.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { kill(); }

  bool start(const std::string &Path) {
    int ToChild[2], FromChild[2];
    if (pipe2(ToChild, O_CLOEXEC) != 0)
      return false;
    if (pipe2(FromChild, O_CLOEXEC) != 0) {
      close(ToChild[0]);
      close(ToChild[1]);
      return false;
    }
    Pid = fork();
    if (Pid == 0) {
      dup2(ToChild[0], 0);
      dup2(FromChild[1], 1);
      execl(Path.c_str(), Path.c_str(), static_cast<char *>(nullptr));
      _exit(127);
    }
    close(ToChild[0]);
    close(FromChild[1]);
    In = ToChild[1];
    Out = FromChild[0];
    if (Pid < 0) {
      closeFds();
      return false;
    }
    return true;
  }

  bool send(const std::string &Line) {
    for (size_t Off = 0; Off < Line.size();) {
      ssize_t N = write(In, Line.data() + Off, Line.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// The next line of the daemon's stdout; false at its end or when none
  /// arrives within \p TimeoutS.
  bool readLine(std::string &Line, double TimeoutS = ReplyTimeoutS) {
    Timer Wait;
    for (;;) {
      size_t End = Buf.find('\n');
      if (End != std::string::npos) {
        Line.assign(Buf, 0, End);
        Buf.erase(0, End + 1);
        return true;
      }
      double Left = TimeoutS - Wait.seconds();
      if (Left <= 0)
        return false;
      pollfd P{Out, POLLIN, 0};
      int Ready = poll(&P, 1, static_cast<int>(Left * 1000) + 1);
      if (Ready < 0 && errno == EINTR)
        continue;
      if (Ready <= 0)
        return false;
      char Chunk[1 << 16];
      ssize_t N = read(Out, Chunk, sizeof Chunk);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        AtEnd = true;
        return false;
      }
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  /// Sends {"op":Op} and waits for the reply of type \p Op.
  bool query(const std::string &Op, json::Value &Reply) {
    if (!send("{\"op\":\"" + Op + "\"}\n"))
      return false;
    std::string Line;
    while (readLine(Line)) {
      const json::Value *Type = nullptr;
      if (json::parse(Line, Reply) && (Type = Reply.find("type")) &&
          Type->Str == Op)
        return true;
    }
    return false;
  }

  pid_t pid() const { return Pid; }

  /// Closes stdin -- a graceful drain -- reads stdout to its end and reaps
  /// the daemon. \returns the peak resident set in MB of the daemon and
  /// every worker it reaped (wait4 covers waited-for descendants).
  double stop() {
    close(In);
    In = -1;
    std::string Line;
    while (readLine(Line, DrainTimeoutS)) {
    }
    if (!AtEnd)
      ::kill(Pid, SIGKILL);
    struct rusage RU = {};
    int Status = 0;
    while (wait4(Pid, &Status, 0, &RU) < 0 && errno == EINTR) {
    }
    Pid = -1;
    closeFds();
    return static_cast<double>(RU.ru_maxrss) / 1024.0;
  }

private:
  pid_t Pid = -1;
  int In = -1, Out = -1;
  std::string Buf;
  bool AtEnd = false;

  void kill() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      while (waitpid(Pid, nullptr, 0) < 0 && errno == EINTR) {
      }
      Pid = -1;
    }
    closeFds();
  }
  void closeFds() {
    if (In >= 0)
      close(In);
    if (Out >= 0)
      close(Out);
    In = Out = -1;
  }
};

struct Job {
  std::string Payload; ///< the escaped program text
  Expected Expect = Expected::Terminating;
};

/// What the client saw of one job in one pass.
struct JobResult {
  bool Replied = false;
  double Sent = 0, Done = 0;
  std::string Status, Verdict;
  double QueueS = 0, RunS = 0, WallS = 0;
  int64_t Attempts = 1;
  Statistics Stats; ///< the report's counters, maxima and timers
};

struct Pass {
  std::vector<JobResult> Results;
  double Wall = 0;
};

double numberAt(const json::Value &V, const char *Key) {
  const json::Value *F = V.find(Key);
  return F && F->isNumber() ? F->Num : 0;
}

/// One closed-loop pass over every job; ids are "<pass>.<job>".
bool runPass(Daemon &D, const std::vector<Job> &Corpus, size_t PassNo,
             const SpanRecorder &Clock, Pass &P, std::string &Err) {
  const std::string Prefix = std::to_string(PassNo) + ".";
  P.Results.assign(Corpus.size(), {});
  std::deque<size_t> Pending;
  for (size_t I = 0; I < Corpus.size(); ++I)
    Pending.push_back(I);
  size_t InFlight = 0, Completed = 0;
  auto SendNext = [&] {
    size_t I = Pending.front();
    Pending.pop_front();
    ++InFlight;
    P.Results[I].Sent = Clock.now();
    return D.send("{\"op\":\"submit\",\"id\":\"" + Prefix + std::to_string(I) +
                  "\",\"program\":\"" + Corpus[I].Payload + "\"}\n");
  };
  double Start = Clock.now();
  while (InFlight < Outstanding && !Pending.empty())
    if (!SendNext()) {
      Err = "cannot write to the daemon";
      return false;
    }
  std::string Line;
  while (Completed < Corpus.size()) {
    if (!D.readLine(Line) || Clock.now() - Start > PassTimeoutS) {
      Err = "the daemon stopped replying in time";
      return false;
    }
    double Now = Clock.now();
    json::Value V;
    if (!json::parse(Line, V)) {
      Err = "unparsable reply: " + Line.substr(0, 200);
      return false;
    }
    const json::Value *Type = V.find("type");
    const json::Value *Id = V.find("id");
    std::string T = Type ? Type->Str : "";
    if (T != "result" && T != "rejected")
      continue; // accepted, or an unsolicited stats line
    size_t I = Id && Id->Str.rfind(Prefix, 0) == 0
                   ? std::strtoul(Id->Str.c_str() + Prefix.size(), nullptr, 10)
                   : Corpus.size();
    if (I >= Corpus.size()) {
      Err = "reply for an unknown job: " + Line.substr(0, 200);
      return false;
    }
    --InFlight;
    JobResult &J = P.Results[I];
    const json::Value *Reason = V.find("reason");
    if (T == "rejected" && Reason && Reason->Str == "queue_full") {
      // Backpressure: the job goes back to the head of the line.
      Pending.push_front(I);
    } else {
      ++Completed;
      J.Replied = true;
      J.Done = Now;
      if (T == "rejected") {
        J.Status = "rejected " + (Reason ? Reason->Str : std::string("?"));
      } else {
        const json::Value *Status = V.find("status");
        const json::Value *Verdict = V.find("verdict");
        J.Status = Status ? Status->Str : "";
        J.Verdict = Verdict && Verdict->isString() ? Verdict->Str : "";
        J.QueueS = numberAt(V, "queue_s");
        J.RunS = numberAt(V, "run_s");
        if (const json::Value *Sandbox = V.find("sandbox"))
          J.Attempts = static_cast<int64_t>(numberAt(*Sandbox, "attempts"));
        if (const json::Value *Report = V.find("report")) {
          J.WallS = numberAt(*Report, "wall_s");
          mergeReport(*Report, J.Stats);
        }
      }
    }
    if (InFlight < Outstanding && !Pending.empty() && !SendNext()) {
      Err = "cannot write to the daemon";
      return false;
    }
  }
  P.Wall = Clock.now() - Start;
  return true;
}

} // namespace

Outcome termbench::runBatch(const Options &O) {
  Outcome Out;
  std::vector<Job> Corpus;
  std::vector<double> SetupS;
  std::unique_ptr<Daemon> D;
  double PeakRss = 0;
  // Set-up -- draw the corpus, start a daemon, wait for its first health
  // reply -- runs SetupRepeats times before the first pass and again before
  // every later one, so every pass meets a fresh daemon and the median
  // samples the whole run. Every repetition must draw the same corpus.
  auto SetUp = [&](int Times) {
    for (int I = 0; I < Times; ++I) {
      if (D) {
        PeakRss = std::max(PeakRss, peakRssMb(std::to_string(D->pid())));
        PeakRss = std::max(PeakRss, D->stop());
      }
      Timer Setup;
      Rng R(O.Seed);
      std::vector<Job> Drawn;
      for (const BenchProgram &B : batchPrograms(R, Jobs))
        Drawn.push_back({json::escape(B.Source), B.Expect});
      D = std::make_unique<Daemon>();
      json::Value Health;
      if (!D->start(O.Daemon) || !D->query("health", Health)) {
        std::fprintf(stderr, "termbench: cannot start %s\n", O.Daemon.c_str());
        std::exit(2);
      }
      SetupS.push_back(Setup.seconds());
      if (Corpus.empty())
        Corpus = std::move(Drawn);
      else if (!std::equal(Corpus.begin(), Corpus.end(), Drawn.begin(),
                           Drawn.end(), [](const Job &A, const Job &B) {
                             return A.Payload == B.Payload;
                           }))
        Out.fail("set-up drew a different corpus from the same seed");
    }
  };
  SetUp(SetupRepeats);

  const double MaxActive =
      static_cast<double>(server::SchedulerConfig().MaxActiveJobs);
  SpanRecorder Rec;
  std::vector<Pass> Untraced, Traced;
  std::vector<Statistics> FirstCounts(Corpus.size());
  std::vector<double> Latencies;
  size_t Decided = 0, Refused = 0;
  double QueueFull = 0, BusyRun = 0, BusyCapacity = 0;
  Timer Measure;
  size_t PassNo = 0;
  for (bool TraceRound = false;; TraceRound = O.Traced && !TraceRound) {
    json::Value Before, After;
    Pass P;
    std::string Err;
    if (!D->query("stats", Before) ||
        !runPass(*D, Corpus, PassNo++, Rec, P, Err) ||
        !D->query("stats", After)) {
      Out.fail("batch: " + (Err.empty() ? "stats query failed" : Err));
      break;
    }
    if (TraceRound) {
      QueueFull += numberAt(After, "rejected_queue_full") -
                   numberAt(Before, "rejected_queue_full");
      BusyRun += numberAt(After, "run_s_total") - numberAt(Before, "run_s_total");
      BusyCapacity +=
          (numberAt(After, "uptime_s") - numberAt(Before, "uptime_s")) *
          MaxActive;
    }
    for (size_t I = 0; I < Corpus.size(); ++I) {
      const JobResult &J = P.Results[I];
      const std::string Name = "job " + std::to_string(I);
      ++Out.Attempted;
      if (J.Status != "finished") {
        ++Refused;
        Out.fail(Name + ": " + (J.Status.empty() ? "no result" : J.Status));
        continue;
      }
      Latencies.push_back(J.Done - J.Sent);
      Verdict V = Verdict::Unknown;
      if (!verdictFromName(J.Verdict, V)) {
        Out.fail(Name + ": unknown verdict '" + J.Verdict + "'");
        continue;
      }
      Verdict Want = Corpus[I].Expect == Expected::Nonterminating
                         ? Verdict::Nonterminating
                         : Verdict::Terminating;
      if (isConclusive(V) && V != Want) {
        Out.fail(Name + ": wrong verdict " + J.Verdict);
        continue;
      }
      Decided += isConclusive(V);
      // Exact work counts: each pass must repeat every job's work.
      Statistics Counts = workCounts(J.Stats);
      if (FirstCounts[I].empty())
        FirstCounts[I] = Counts;
      else if (FirstCounts[I].str() != Counts.str())
        Out.fail(Name + ": work counts differ between passes");
    }
    double Wall = P.Wall;
    (TraceRound ? Traced : Untraced).push_back(std::move(P));
    bool Enough = !O.Traced || !Traced.empty();
    if (Enough && Measure.seconds() + Wall > O.Seconds)
      break;
    SetUp(1);
  }
  PeakRss = std::max(PeakRss, peakRssMb(std::to_string(D->pid())));
  PeakRss = std::max(PeakRss, D->stop());
  Statistics FirstPass;
  for (const Statistics &C : FirstCounts)
    FirstPass.merge(C);
  std::printf("batch: %zu jobs per pass, %zu untraced and %zu traced passes, "
              "%zu outstanding\n",
              Corpus.size(), Untraced.size(), Traced.size(), Outstanding);
  std::printf("batch: work counts per pass: iterations %lld, generalize "
              "calls %lld, product states %lld\n",
              static_cast<long long>(FirstPass.get("iterations")),
              static_cast<long long>(FirstPass.get("perf.generalize_calls")),
              static_cast<long long>(
                  FirstPass.get("difference.product_states")));

  if (!O.Traced) {
    std::vector<double> Walls, Rates;
    for (const Pass &P : Untraced) {
      Walls.push_back(P.Wall);
      Rates.push_back(static_cast<double>(P.Results.size()) / P.Wall);
    }
    Tail T = tailOf(Latencies, Refused);
    Out.metric("setup_s", median(SetupS), "s");
    Out.metric("wall_s", median(Walls), "s");
    Out.metric("jobs_per_s", median(Rates), "jobs/s");
    Out.metric("latency_p50_s", median(Latencies), "s");
    Out.metric("latency_tail_s", T.Value, "s");
    Out.metric("decided_share",
               static_cast<double>(Decided) /
                   static_cast<double>(std::max<uint64_t>(1, Out.Attempted)),
               "1");
    Out.metric("peak_rss_mb", PeakRss, "MB");
    std::printf("batch: latency_tail_s is p%g of %zu samples, %zu beyond "
                "it\n",
                T.Percentile, T.Samples, T.Beyond);
    return Out;
  }

  // Per-layer numbers from the traced passes, per pass. Each job's client
  // exchange is an observed span; the result line's queue_s and run_s and
  // the report's wall_s and timers are derived spans inside it.
  double Rounds = static_cast<double>(Traced.size());
  Statistics Sum;
  double Analyze = 0, Queue = 0, Isolation = 0, Transport = 0, Exchange = 0;
  double Attempts = 0;
  int64_t TaskId = 0;
  for (const Pass &P : Traced)
    for (const JobResult &J : P.Results) {
      ++TaskId;
      if (!J.Replied)
        continue;
      int64_t Ex = Rec.add("server.exchange", J.Sent, J.Done, -1, TaskId,
                           false);
      Rec.derived("server.queue", J.QueueS, Ex);
      int64_t Run = Rec.derived("server.run", J.RunS, Ex);
      addTimerSpans(Rec, J.Stats, Rec.derived("termination.analyze", J.WallS,
                                              Run));
      Sum.merge(J.Stats);
      Analyze += J.WallS;
      Queue += J.QueueS;
      Isolation += J.RunS - J.WallS;
      Transport += (J.Done - J.Sent) - J.QueueS - J.RunS;
      Exchange += J.Done - J.Sent;
      Attempts += static_cast<double>(J.Attempts);
    }
  addAnalyzerMetrics(Out, Sum, Analyze, Rounds);
  Out.metric("server.queue_s", Queue / Rounds, "s");
  Out.metric("server.isolation_overhead_s", Isolation / Rounds, "s");
  Out.metric("server.transport_s", Transport / Rounds, "s");
  Out.metric("server.attempts", Attempts / Rounds, "count");
  Out.metric("server.retries",
             (Attempts - static_cast<double>(Jobs) * Rounds) / Rounds, "count");
  Out.metric("server.queue_full_rejections", QueueFull / Rounds, "count");
  Out.metric("server.pool_busy_share",
             BusyCapacity > 0 ? BusyRun / BusyCapacity : 0, "1");
  std::vector<double> TW, UW;
  for (const Pass &P : Traced)
    TW.push_back(P.Wall);
  for (const Pass &P : Untraced)
    UW.push_back(P.Wall);
  Out.metric("trace.overhead_s", median(TW) - median(UW), "s");

  printLayerTable("batch", Rec.spans(), Exchange,
                  "job-seconds: the client-observed exchanges of " +
                      std::to_string(Traced.size()) +
                      " traced pass(es), " + std::to_string(Outstanding) +
                      " outstanding");
  std::printf("batch: tracing overhead %.6f s per pass (traced %.6f s, "
              "untraced %.6f s)\n",
              median(TW) - median(UW), median(TW), median(UW));
  printPredictions();
  if (!O.SpansPath.empty() && !Rec.write(O.SpansPath))
    std::fprintf(stderr, "termbench: cannot write %s\n", O.SpansPath.c_str());
  return Out;
}
