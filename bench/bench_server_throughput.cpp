//===- bench/bench_server_throughput.cpp - Scheduler throughput -----------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Drives the termcheckd scheduler (server/Scheduler.h) in
/// process -- no sockets, no JSON parsing -- so the number it reports is
/// the scheduling-plus-analysis capacity of one daemon: jobs/sec over a
/// seeded batch corpus, p50/p95 admission-to-completion latency, and how
/// often open-throttle submission hit the admission queue's bound.
///
/// Usage: bench_server_throughput [--json <path|->] [--repeat N]
///                                [count] [max-active] [queue-cap]
///   count       corpus size                      (default 200)
///   max-active  concurrent jobs                  (default 4)
///   queue-cap   admission queue bound            (default 64)
///   --repeat N  medians over N runs              (default 1)
///   --json      machine-readable report in the shared
///               "termcheck-bench-report" schema
///
/// Submission is open throttle: the harness submits as fast as admission
/// control lets it and counts `queue_full` rejections as backpressure
/// events, the same loop a saturated termcheck-batch client runs. Jobs
/// run the library-default configuration so the measured latency is real
/// analysis work, not sleeps.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "benchgen/CorpusEmit.h"
#include "server/Scheduler.h"
#include "support/Timer.h"

#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

using namespace termcheck;
using namespace termcheck::bench;
using namespace termcheck::server;

namespace {

/// Latency quantile over a copy of \p Samples (p in [0,1]).
double quantile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t Idx = static_cast<size_t>(P * static_cast<double>(Samples.size()));
  if (Idx >= Samples.size())
    Idx = Samples.size() - 1;
  return Samples[Idx];
}

struct RunResult {
  double WallSeconds = 0;
  std::vector<double> Latencies; // admission -> completion, per job
  uint64_t QueueFullRetries = 0;
  uint64_t Solved = 0; // conclusive verdicts
  uint64_t Jobs = 0;
};

RunResult runOnce(const std::vector<BenchProgram> &Corpus,
                  const SchedulerConfig &Cfg) {
  RunResult Out;
  Out.Jobs = Corpus.size();
  Scheduler S(Cfg);

  std::mutex M;
  std::condition_variable SlotFree;
  size_t Completed = 0;
  Timer Wall;

  std::vector<double> SubmitAt(Corpus.size(), 0.0);
  Out.Latencies.assign(Corpus.size(), 0.0);

  for (size_t I = 0; I < Corpus.size(); ++I) {
    JobSpec Spec;
    Spec.Id = Corpus[I].Name;
    Spec.ProgramText = Corpus[I].Source;
    Spec.Opts.TimeoutSeconds = 10;
    auto Done = [&, I](JobOutcome O) {
      bool Conclusive = O.Status == JobStatus::Finished &&
                        (O.Result.V == Verdict::Terminating ||
                         O.Result.V == Verdict::Nonterminating);
      std::lock_guard<std::mutex> Lock(M);
      Out.Latencies[I] = Wall.seconds() - SubmitAt[I];
      if (Conclusive)
        ++Out.Solved;
      ++Completed;
      SlotFree.notify_all();
    };
    // Open throttle with backpressure: a queue_full rejection parks the
    // submitter until the next completion frees a slot, exactly like a
    // stalled batch client.
    for (;;) {
      SubmitAt[I] = Wall.seconds();
      Scheduler::Admission A = S.submit(Spec, Done);
      if (A == Scheduler::Admission::Accepted)
        break;
      if (A != Scheduler::Admission::QueueFull) {
        std::fprintf(stderr, "bench_server_throughput: unexpected %s\n",
                     Corpus[I].Name.c_str());
        std::exit(1);
      }
      ++Out.QueueFullRetries;
      std::unique_lock<std::mutex> Lock(M);
      size_t Seen = Completed;
      SlotFree.wait(Lock, [&] { return Completed > Seen; });
    }
  }
  S.awaitIdle();
  Out.WallSeconds = Wall.seconds();
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath = takeJsonFlag(Argc, Argv);
  const unsigned Repeat = takeRepeatFlag(Argc, Argv);
  std::vector<const char *> Pos;
  for (int I = 1; I < Argc; ++I)
    Pos.push_back(Argv[I]);
  size_t Count = Pos.size() > 0 ? static_cast<size_t>(std::atol(Pos[0])) : 200;
  SchedulerConfig Cfg;
  Cfg.MaxActiveJobs =
      Pos.size() > 1 ? static_cast<size_t>(std::atol(Pos[1])) : 4;
  Cfg.QueueCapacity =
      Pos.size() > 2 ? static_cast<size_t>(std::atol(Pos[2])) : 64;
  const size_t Workers = ThreadPool::defaultConcurrency();

  Rng R(0x5EED5EED);
  std::vector<BenchProgram> Corpus = batchPrograms(R, Count);

  std::printf("server throughput: %zu jobs, %zu workers (one per core), "
              "max-active %zu, queue-cap %zu, repeat %u\n",
              Count, Workers, Cfg.MaxActiveJobs, Cfg.QueueCapacity, Repeat);
  hr();

  // Medians across repeats, per metric: walls and latencies both flap
  // with scheduling noise, and the regression gate compares medians.
  std::vector<double> Walls, P50s, P95s, Rates;
  uint64_t Retries = 0, Solved = 0;
  for (unsigned Rep = 0; Rep < Repeat; ++Rep) {
    RunResult RR = runOnce(Corpus, Cfg);
    double Rate = RR.WallSeconds > 0
                      ? static_cast<double>(RR.Jobs) / RR.WallSeconds
                      : 0;
    Walls.push_back(RR.WallSeconds);
    P50s.push_back(quantile(RR.Latencies, 0.50));
    P95s.push_back(quantile(RR.Latencies, 0.95));
    Rates.push_back(Rate);
    Retries = RR.QueueFullRetries; // last run; identical corpus each time
    Solved = RR.Solved;
    std::printf("run %u: wall %.3fs  %.1f jobs/s  p50 %.4fs  p95 %.4fs  "
                "queue-full retries %llu  solved %llu/%llu\n",
                Rep + 1, RR.WallSeconds, Rate, P50s.back(), P95s.back(),
                static_cast<unsigned long long>(RR.QueueFullRetries),
                static_cast<unsigned long long>(RR.Solved),
                static_cast<unsigned long long>(RR.Jobs));
  }
  double Wall = medianOf(Walls);
  double P50 = medianOf(P50s);
  double P95 = medianOf(P95s);
  double Rate = medianOf(Rates);
  hr();
  std::printf("median: wall %.3fs  %.1f jobs/s  p50 %.4fs  p95 %.4fs\n",
              Wall, Rate, P50, P95);

  if (!JsonPath.empty()) {
    std::ostringstream JsonBuf;
    json::Writer W(JsonBuf);
    W.beginObject();
    beginBenchReport(W, "server_throughput");
    W.field("jobs", static_cast<int64_t>(Count));
    W.field("workers", static_cast<int64_t>(Workers));
    W.field("max_active", static_cast<int64_t>(Cfg.MaxActiveJobs));
    W.field("queue_cap", static_cast<int64_t>(Cfg.QueueCapacity));
    W.field("repeat", static_cast<int64_t>(Repeat));
    W.field("wall_s", Wall);
    W.field("jobs_per_s", Rate);
    W.field("p50_latency_s", P50);
    W.field("p95_latency_s", P95);
    W.field("queue_full_retries", static_cast<uint64_t>(Retries));
    W.field("solved", static_cast<uint64_t>(Solved));
    W.endObject();
    W.finish();
    if (!writeJsonDocument(JsonPath, JsonBuf.str()))
      return 1;
  }
  return 0;
}
