//===- bench/bench_portfolio.cpp - Portfolio vs sequential walls ----------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Races the parallel portfolio against every sequential configuration it
/// contains, over the on-disk `benchmarks/` corpus. For each program the
/// table reports the portfolio wall-clock next to the fastest, default
/// (roster entry 0), and slowest sequential configuration, plus the
/// speedup over the default. The portfolio's promise is the two
/// inequalities the summary checks:
///
///   wall(portfolio) <= wall(slowest sequential) on every program
///     (cancellation works: losers cannot drag the race out), and
///   wall(portfolio) ~ wall(best sequential) + epsilon
///     (racing costs little over an oracle that picks the winner upfront).
///
/// The comparison tolerates a fixed scheduling epsilon: racing spawns
/// worker threads, and on sub-millisecond programs thread startup alone
/// exceeds the fastest sequential wall, which is noise, not a cancellation
/// failure.
///
/// Usage: bench_portfolio [--json <path|->] [--repeat N] [corpus-dir]
///                        [timeout-seconds] [configs] [jobs]
///   corpus-dir       directory of .while files   (default: benchmarks)
///   timeout-seconds  per-configuration budget    (default: 10)
///   configs          portfolio size K, 1..3      (default: 3, the roster)
///   jobs             worker threads, 0 = one per config (default: 0)
///   --repeat N       report every wall as the median of N runs (default 1)
///   --json <path>    additionally emit a machine-readable report to the
///                    file (or stdout when the path is `-`): the shared
///                    "termcheck-bench-report" schema whose per-program
///                    entries embed the full termcheck-run-report fields
///                    (winner, entrant timelines, stage census) plus a
///                    `bench` object with the wall-clock comparison
///
/// Jobs defaults to one thread per configuration rather than the core
/// count: a portfolio is a race, and racing through the OS scheduler works
/// (and pays off) even when configurations outnumber cores, because the
/// first conclusive finisher cancels the rest.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "support/Timer.h"
#include "termination/RunReport.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace termcheck;
using namespace termcheck::bench;

namespace {

struct CorpusProgram {
  std::string Name;
  std::string Source;
};

std::vector<CorpusProgram> loadCorpus(const std::string &Dir) {
  std::vector<CorpusProgram> Out;
  std::error_code EC;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, EC)) {
    if (Entry.path().extension() != ".while")
      continue;
    std::ifstream In(Entry.path());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Out.push_back({Entry.path().stem().string(), Buf.str()});
  }
  std::sort(Out.begin(), Out.end(),
            [](const CorpusProgram &A, const CorpusProgram &B) {
              return A.Name < B.Name;
            });
  return Out;
}

double runSequential(const Program &P, const PortfolioConfig &C,
                     double Timeout) {
  Program Local = P;
  AnalyzerOptions O = C.Opts;
  O.TimeoutSeconds = Timeout;
  Timer T;
  TerminationAnalyzer A(Local, O);
  (void)A.run();
  return T.seconds();
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath = takeJsonFlag(Argc, Argv);
  const unsigned Repeat = takeRepeatFlag(Argc, Argv);
  std::vector<const char *> Pos;
  for (int I = 1; I < Argc; ++I)
    Pos.push_back(Argv[I]);
  std::string Dir = Pos.size() > 0 ? Pos[0] : "benchmarks";
  double Timeout = Pos.size() > 1 ? std::atof(Pos[1]) : 10.0;
  size_t K = Pos.size() > 2 ? static_cast<size_t>(std::atol(Pos[2]))
                            : PortfolioRosterSize;
  size_t Jobs = Pos.size() > 3 ? static_cast<size_t>(std::atol(Pos[3])) : 0;

  std::vector<CorpusProgram> Corpus = loadCorpus(Dir);
  if (Corpus.empty()) {
    std::fprintf(stderr, "bench_portfolio: no .while files under %s\n",
                 Dir.c_str());
    return 1;
  }
  std::vector<PortfolioConfig> Configs = defaultPortfolio(K);
  if (Jobs == 0)
    Jobs = Configs.size();

  std::printf("portfolio: %zu configs, %zu jobs, %.1f s budget, corpus %s "
              "(%zu programs)\n",
              Configs.size(), Jobs, Timeout, Dir.c_str(), Corpus.size());
  hr();
  std::printf("%-18s %9s %9s %9s %9s  %8s %s\n", "program", "portfolio",
              "best-seq", "default", "worst-seq", "vs-def", "flags");
  hr();

  bool SlowerThanWorst = false;
  double BestSpeedup = 0;
  double TotalPortfolio = 0, TotalBest = 0, TotalDefault = 0;
  // The --json document: the shared bench schema, with each program's
  // entry embedding the full termcheck-run-report fields of the portfolio
  // run plus a `bench` object of harness-only measurements.
  std::ostringstream JsonBuf;
  json::Writer W(JsonBuf);
  W.beginObject();
  beginBenchReport(W, "portfolio");
  W.field("corpus", Dir);
  W.field("timeout_s", Timeout);
  W.field("configs", static_cast<int64_t>(Configs.size()));
  W.field("jobs", static_cast<int64_t>(Jobs));
  W.field("repeat", static_cast<int64_t>(Repeat));
  W.key("runs");
  W.beginArray();
  for (const CorpusProgram &CP : Corpus) {
    ParseResult PR = parseProgram(CP.Source);
    if (!PR.ok()) {
      std::fprintf(stderr, "  %s: parse error: %s\n", CP.Name.c_str(),
                   PR.Error.c_str());
      continue;
    }
    Program &P = *PR.Prog;

    double Best = 1e300, Worst = 0, Default = 0;
    for (size_t I = 0; I < Configs.size(); ++I) {
      double S = medianWall(
          Repeat, [&] { return runSequential(P, Configs[I], Timeout); });
      if (I == 0)
        Default = S;
      Best = std::min(Best, S);
      Worst = std::max(Worst, S);
    }

    PortfolioOptions PO;
    PO.Jobs = Jobs;
    PO.TimeoutSeconds = Timeout;
    PortfolioRunResult R;
    double Wall = medianWall(Repeat, [&] {
      Timer T;
      R = runPortfolio(P, Configs, PO);
      return T.seconds();
    });

    double Speedup = Wall > 0 ? Default / Wall : 0;
    BestSpeedup = std::max(BestSpeedup, Speedup);
    // Thread startup and timeslicing overhead; see the header comment.
    constexpr double SchedulingEps = 0.010;
    bool Slower = Wall > Worst + SchedulingEps;
    SlowerThanWorst |= Slower;
    TotalPortfolio += Wall;
    TotalBest += Best;
    TotalDefault += Default;

    std::printf("%-18s %8.3fs %8.3fs %8.3fs %8.3fs  %7.2fx %s%s%s\n",
                CP.Name.c_str(), Wall, Best, Default, Worst, Speedup,
                verdictName(R.Result.V),
                R.WinnerIndex < Configs.size() ? " won-by " : "",
                R.WinnerName.c_str());

    W.beginObject();
    RunReportInput In;
    In.ProgramName = CP.Name;
    In.SourcePath = Dir + "/" + CP.Name + ".while";
    In.Result = &R.Result;
    In.Portfolio = &R;
    In.Jobs = Jobs;
    In.TimeoutSeconds = Timeout;
    writeRunReportFields(W, In);
    W.key("bench");
    W.beginObject();
    W.field("portfolio_s", Wall);
    W.field("best_seq_s", Best);
    W.field("default_seq_s", Default);
    W.field("worst_seq_s", Worst);
    W.field("speedup_vs_default", Speedup);
    W.endObject();
    W.endObject();
  }
  hr();
  std::printf("totals: portfolio %.3fs, best-seq %.3fs, default-seq %.3fs\n",
              TotalPortfolio, TotalBest, TotalDefault);
  std::printf(
      "portfolio <= worst sequential (+10ms sched eps) on every program: %s\n",
      SlowerThanWorst ? "NO" : "yes");
  std::printf("max speedup over default configuration: %.2fx\n", BestSpeedup);
  W.endArray();
  W.key("totals");
  W.beginObject();
  W.field("portfolio_s", TotalPortfolio);
  W.field("best_seq_s", TotalBest);
  W.field("default_seq_s", TotalDefault);
  W.endObject();
  W.field("never_slower_than_worst", !SlowerThanWorst);
  W.field("max_speedup_vs_default", BestSpeedup);
  W.endObject();
  W.finish();
  if (!JsonPath.empty() && !writeJsonDocument(JsonPath, JsonBuf.str()))
    return 1;
  return SlowerThanWorst ? 2 : 0;
}
