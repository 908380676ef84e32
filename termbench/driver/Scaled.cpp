//===- driver/Scaled.cpp - The `scaled` workload --------------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// One client, one task at a time, in process through the CLI's own entry
/// points (parseProgram + TerminationAnalyzer::run, CLI default options).
/// The task set is a stratified seeded draw of terminating programs from
/// templates owned by this file, plus two on-disk programs, plus a tail of
/// two programs run once with a 2 s budget each (README.md, "scaled").
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"
#include "Spans.h"

#include "benchgen/ProgramFamilies.h"
#include "program/Parser.h"
#include "support/Rng.h"
#include "support/Trace.h"
#include "termination/Analyzer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>

using namespace termbench;
using namespace termcheck;

namespace {

/// The CLI's default budget, and the budget of the tail tasks.
constexpr double MainBudgetS = 60;
constexpr double TailBudgetS = 2;
/// No task's budget reaches past this point of the run, so that a run
/// ends in time even on a commit that made analyses far slower.
constexpr double HardStopS = 150;
/// Set-up is repeated this often before every round; setup_s is the
/// median of all repetitions.
constexpr int SetupRepeats = 5;

struct Task {
  std::string Name;
  std::string Source;
  Expected Expect = Expected::Terminating;
  bool Tail = false;
};

std::string num(int64_t V) { return std::to_string(V); }

/// benchmarks/moded_stride.while with mode bound \p M: i drops once every
/// M + 1 iterations, so the proof needs about M modules.
std::string modedStride(int M) {
  return "program moded(i, m) {\n"
         "  assume(m >= 0 && m <= " + num(M) + ");\n"
         "  while (i > 0) {\n"
         "    if (m > 0) { m := m - 1; w0 := w0 + 1; w1 := w1 + 1; }\n"
         "    else { m := " + num(M) + "; i := i - 1; w0 := w0 + 1; "
         "w1 := w1 + 1; }\n"
         "  }\n"
         "}\n";
}

/// A Depth-deep nest of loops with constant bound \p Bound under one
/// decreasing outer counter.
std::string deepNest(int Depth, int Bound) {
  std::string Src = "program deep(i0) {\n  while (i0 > 0) {\n";
  std::string Ind = "  ";
  for (int K = 1; K <= Depth; ++K) {
    Ind += "  ";
    Src += Ind + "i" + num(K) + " := " + num(Bound) + ";\n";
    Src += Ind + "while (i" + num(K) + " > 0) {\n";
  }
  Src += Ind + "  i" + num(Depth) + " := i" + num(Depth) + " - 1;\n";
  for (int K = Depth; K >= 1; --K) {
    Src += Ind + "}\n";
    Ind.resize(Ind.size() - 2);
    Src += Ind + "  i" + num(K - 1) + " := i" + num(K - 1) + " - 1;\n";
  }
  return Src + "  }\n}\n";
}

/// A Depth-deep nest where each level resets the next counter from its
/// own (benchmarks/nested3.while is depth 3).
std::string resetNest(int Depth) {
  std::string Src = "program nested(x0) {\n";
  std::string Ind = "  ";
  for (int D = 0; D < Depth; ++D) {
    Src += Ind + "while (x" + num(D) + " > 0) {\n";
    Ind += "  ";
    if (D + 1 < Depth)
      Src += Ind + "x" + num(D + 1) + " := x" + num(D) + ";\n";
  }
  for (int D = Depth - 1; D >= 0; --D) {
    Src += Ind + "x" + num(D) + " := x" + num(D) + " - 1;\n";
    Ind.resize(Ind.size() - 2);
    Src += Ind + "}\n";
  }
  return Src + "}\n";
}

/// Loads benchmarks/<File> and its verdict from benchmarks/EXPECTATIONS.txt.
bool onDisk(const std::string &Root, const std::string &File, Task &T,
            std::string &Err) {
  std::string Expectations;
  if (!readFile(Root + "/benchmarks/" + File, T.Source) ||
      !readFile(Root + "/benchmarks/EXPECTATIONS.txt", Expectations)) {
    Err = "cannot read benchmarks/" + File + " or its expectations";
    return false;
  }
  ParseResult P = parseProgram(T.Source);
  if (!P.ok()) {
    Err = "benchmarks/" + File + ": " + P.Error;
    return false;
  }
  T.Name = File;
  std::istringstream Lines(Expectations);
  std::string Name, Verdict;
  while (Lines >> Name) {
    if (Name[0] == '#') {
      std::getline(Lines, Name);
      continue;
    }
    Lines >> Verdict;
    if (Name == P.Prog->name()) {
      T.Expect = Verdict == "NONTERMINATING" ? Expected::Nonterminating
                                             : Expected::Terminating;
      return true;
    }
  }
  Err = "no expectation for " + P.Prog->name();
  return false;
}

/// The task set of \p Seed: every template slot fixes a narrow parameter
/// range and the seed draws inside it, then shuffles the order, so seeds
/// differ in their programs but not in their total work.
bool makeTasks(uint64_t Seed, const std::string &Root, std::vector<Task> &Out,
               std::string &Err) {
  Rng R(Seed);
  std::vector<Task> Tasks;
  // Two of the four middle mode-bound strata, chosen by the seed, take
  // M + 1. M = 15 stays fixed: it is the task set's median, which
  // latency_p50_s and, at 22 tasks, latency_tail_s read.
  int Bump[6] = {0, 1, 1, 0, 0, 0};
  for (size_t I = 4; I > 1; --I)
    std::swap(Bump[I], Bump[1 + R.below(I)]);
  for (int K = 0; K < 6; ++K) {
    int M = 15 + 5 * K + Bump[K];
    Tasks.push_back({"moded_m" + num(M), modedStride(M)});
  }
  for (int Bound : {2, 2, 2, 3, 3, 3})
    Tasks.push_back({"deep_d3_b" + num(Bound), deepNest(3, Bound)});
  for (int Bound : {2, 2, 3})
    Tasks.push_back({"deep_d4_b" + num(Bound), deepNest(4, Bound)});
  for (int Depth : {3, 5, 6})
    Tasks.push_back({"reset_d" + num(Depth), resetNest(Depth)});
  for (const char *File : {"moded_stride.while", "nested3.while"}) {
    Task T;
    if (!onDisk(Root, File, T, Err))
      return false;
    Tasks.push_back(std::move(T));
  }
  for (size_t I = Tasks.size(); I > 1; --I)
    std::swap(Tasks[I - 1], Tasks[R.below(I)]);

  // The tail: solved-within-budget questions, run once per run.
  for (BenchProgram &B : benchmarkSuite())
    if (B.Name == "gcd_like")
      Tasks.push_back({B.Name, B.Source, B.Expect, true});
  Tasks.push_back({"reset_d4", resetNest(4), Expected::Terminating, true});
  Out = std::move(Tasks);
  return true;
}

struct Exec {
  double Latency = 0;  ///< parse -> verdict
  double AnalyzeS = 0; ///< inside TerminationAnalyzer::run
  Verdict V = Verdict::Unknown;
  Statistics Stats;
  std::string Error;
};

const char *stageName(int64_t Index) {
  switch (Index) {
  case 1:
    return "termination.stage.finite";
  case 2:
    return "termination.stage.det";
  case 3:
    return "termination.stage.semi";
  default:
    return "termination.stage.nondet";
  }
}

struct StageTally {
  size_t Attempts = 0;
  size_t Built = 0;
};

/// Runs one task. With \p Rec set, records the task's spans: observed
/// spans around parseProgram and TerminationAnalyzer::run, derived spans
/// from the report timers, and observed stage spans between each
/// StageAttempt trace event and the event after it.
Exec execute(const Task &T, double Budget, SpanRecorder *Rec,
             int64_t TaskId, StageTally &Tally) {
  Exec E;
  int64_t Root = Rec ? Rec->begin("bench.task", -1, TaskId) : -1;
  Timer Latency;
  int64_t ParseSpan = Rec ? Rec->begin("program.parse", Root, TaskId) : -1;
  ParseResult P = parseProgram(T.Source);
  if (Rec)
    Rec->end(ParseSpan);
  if (!P.ok()) {
    if (Rec)
      Rec->end(Root);
    E.Error = "parse error: " + P.Error;
    return E;
  }

  AnalyzerOptions Opts;
  Opts.TimeoutSeconds = Budget;
  RecordingSink Sink;
  std::optional<Trace> Tracer;
  double TraceEpoch = 0;
  if (Rec) {
    Tracer.emplace(Sink);
    TraceEpoch = Rec->now();
    Opts.Tracer = &*Tracer;
  }
  int64_t AnalyzeSpan =
      Rec ? Rec->begin("termination.analyze", Root, TaskId) : -1;
  Timer Analyze;
  try {
    AnalysisResult R = TerminationAnalyzer(*P.Prog, Opts).run();
    E.V = R.V;
    E.Stats = std::move(R.Stats);
  } catch (const std::exception &X) {
    E.Error = std::string("engine error: ") + X.what();
  }
  E.AnalyzeS = Analyze.seconds();
  E.Latency = Latency.seconds();
  if (!Rec)
    return E;

  Rec->end(AnalyzeSpan);
  int64_t Generalize = addTimerSpans(*Rec, E.Stats, AnalyzeSpan);
  const std::vector<TraceEvent> &Events = Sink.events();
  for (size_t I = 0; I < Events.size(); ++I) {
    if (Events[I].Kind == TraceEventKind::ModuleBuilt)
      ++Tally.Built;
    if (Events[I].Kind != TraceEventKind::StageAttempt || I + 1 == Events.size())
      continue;
    ++Tally.Attempts;
    const TraceEvent::FieldValue *Stage = Events[I].find("stage");
    Rec->add(stageName(Stage ? std::get<int64_t>(*Stage) : 0),
             TraceEpoch + Events[I].AtSeconds,
             TraceEpoch + Events[I + 1].AtSeconds,
             Generalize >= 0 ? Generalize : AnalyzeSpan, TaskId, false);
  }
  Rec->end(Root);
  return E;
}

/// One set-up: draws the task set and checks that every input parses.
/// \returns its seconds; a set-up error ends the run.
double setUp(const Options &O, std::vector<Task> &Tasks) {
  Timer Setup;
  std::string Err;
  if (!makeTasks(O.Seed, O.Root, Tasks, Err)) {
    std::fprintf(stderr, "termbench: scaled set-up: %s\n", Err.c_str());
    std::exit(2);
  }
  for (const Task &T : Tasks)
    if (!parseProgram(T.Source).ok()) {
      std::fprintf(stderr, "termbench: %s does not parse\n", T.Name.c_str());
      std::exit(2);
    }
  return Setup.seconds();
}

} // namespace

Outcome termbench::runScaled(const Options &O) {
  Outcome Out;
  std::vector<Task> Tasks;
  std::vector<double> SetupS;
  // Set-up is measured before the first round and again before every
  // later one, so its median samples the whole run; every repetition must
  // draw the same inputs from the seed.
  auto MeasureSetUp = [&] {
    for (int I = 0; I < SetupRepeats; ++I) {
      std::vector<Task> Drawn;
      SetupS.push_back(setUp(O, Drawn));
      if (Tasks.empty())
        Tasks = std::move(Drawn);
      else if (!std::equal(Tasks.begin(), Tasks.end(), Drawn.begin(),
                           Drawn.end(), [](const Task &A, const Task &B) {
                             return A.Source == B.Source;
                           }))
        Out.fail("set-up drew different inputs from the same seed");
    }
  };
  MeasureSetUp();

  const size_t TailTasks = static_cast<size_t>(std::count_if(
      Tasks.begin(), Tasks.end(), [](const Task &T) { return T.Tail; }));
  const size_t MainTasks = Tasks.size() - TailTasks;
  std::vector<std::vector<double>> Latencies(Tasks.size());
  std::vector<bool> Decided(Tasks.size(), true), Failed(Tasks.size(), false);
  std::vector<std::optional<Statistics>> FirstCounts(Tasks.size());
  Statistics FirstRound;
  auto Check = [&](size_t Idx, const Exec &E) {
    const Task &T = Tasks[Idx];
    ++Out.Attempted;
    if (!E.Error.empty()) {
      Decided[Idx] = false;
      Failed[Idx] = true;
      Out.fail(T.Name + ": " + E.Error);
      return;
    }
    Latencies[Idx].push_back(E.Latency);
    if (!isConclusive(E.V)) {
      Decided[Idx] = false;
    } else if (T.Expect == Expected::Hard ||
               E.V != (T.Expect == Expected::Terminating
                           ? Verdict::Terminating
                           : Verdict::Nonterminating)) {
      Failed[Idx] = true;
      Out.fail(T.Name + ": wrong verdict " + verdictName(E.V));
      return;
    }
    if (T.Tail)
      return; // budget-bound: its counts depend on the clock
    // Exact work counts: every repetition must do identical work.
    Statistics Counts = workCounts(E.Stats);
    if (!FirstCounts[Idx]) {
      FirstCounts[Idx] = Counts;
      FirstRound.merge(Counts);
    } else if (FirstCounts[Idx]->str() != Counts.str()) {
      Out.fail(T.Name + ": work counts differ between repetitions");
    }
  };

  StageTally Tally;
  Timer Measure;
  auto Budget = [&Measure](const Task &T) {
    return std::max(1.0, std::min(T.Tail ? TailBudgetS : MainBudgetS,
                                  HardStopS - Measure.seconds()));
  };
  // The tail, once per run and untraced: its time is the budget.
  double TailWall = 0, Overshoot = 0;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    if (!Tasks[I].Tail)
      continue;
    Exec E = execute(Tasks[I], Budget(Tasks[I]), nullptr, -1, Tally);
    TailWall += E.Latency;
    if (E.V == Verdict::Timeout)
      Overshoot += E.AnalyzeS - TailBudgetS;
    Check(I, E);
  }

  // Rounds of the main set until the next one would overrun the run; a
  // traced run alternates untraced and traced rounds.
  SpanRecorder Rec;
  Statistics TracedSum;
  double TracedAnalyze = 0;
  std::vector<double> Untraced, Traced;
  int64_t TaskId = 0;
  for (bool TraceRound = false;; TraceRound = O.Traced && !TraceRound) {
    Timer Round;
    for (size_t I = 0; I < Tasks.size(); ++I) {
      if (Tasks[I].Tail)
        continue;
      Exec E = execute(Tasks[I], Budget(Tasks[I]), TraceRound ? &Rec : nullptr,
                       TaskId++, Tally);
      if (TraceRound) {
        TracedSum.merge(E.Stats);
        TracedAnalyze += E.AnalyzeS;
      }
      Check(I, E);
    }
    double Wall = Round.seconds();
    (TraceRound ? Traced : Untraced).push_back(Wall);
    bool Enough = !O.Traced || !Traced.empty();
    if (Enough && Measure.seconds() + Wall > O.Seconds)
      break;
    MeasureSetUp();
  }

  std::printf("scaled: %zu tasks (%zu tail), %zu untraced and %zu traced "
              "rounds, tail %.3f s\n",
              Tasks.size(), TailTasks, Untraced.size(), Traced.size(),
              TailWall);
  std::printf("scaled: work counts per round: iterations %lld, generalize "
              "calls %lld, product states %lld\n",
              static_cast<long long>(FirstRound.get("iterations")),
              static_cast<long long>(FirstRound.get("perf.generalize_calls")),
              static_cast<long long>(
                  FirstRound.get("difference.product_states")));

  if (!O.Traced) {
    // Each task's latency is its fastest repetition: other tenants of the
    // machine only ever add time, so the minimum is the steadiest estimate
    // of the work itself. The tail's time is its budget plus however long
    // the engine takes to notice it, so wall_s and jobs_per_s cover the
    // main set only.
    std::vector<double> PerTask;
    double Wall = 0;
    for (size_t I = 0; I < Tasks.size(); ++I) {
      if (Latencies[I].empty())
        continue;
      PerTask.push_back(
          *std::min_element(Latencies[I].begin(), Latencies[I].end()));
      if (!Tasks[I].Tail)
        Wall += PerTask.back();
    }
    Tail T = tailOf(PerTask, std::count(Failed.begin(), Failed.end(), true));
    Out.metric("setup_s", median(SetupS), "s");
    Out.metric("wall_s", Wall, "s");
    Out.metric("jobs_per_s", static_cast<double>(MainTasks) / Wall, "jobs/s");
    Out.metric("latency_p50_s", median(PerTask), "s");
    Out.metric("latency_tail_s", T.Value, "s");
    Out.metric("decided_share",
               static_cast<double>(
                   std::count(Decided.begin(), Decided.end(), true)) /
                   static_cast<double>(Tasks.size()),
               "1");
    Out.metric("peak_rss_mb", peakRssMb(), "MB");
    std::printf("scaled: latency_tail_s is p%g of %zu per-task latencies, "
                "%zu beyond it\n",
                T.Percentile, T.Samples, T.Beyond);
    return Out;
  }

  double Rounds = static_cast<double>(Traced.size());
  double TracedWall = 0;
  for (double W : Traced)
    TracedWall += W;
  std::map<std::string, double> BySpan;
  for (const Span &S : Rec.spans())
    BySpan[S.Name] += S.seconds();
  addAnalyzerMetrics(Out, TracedSum, TracedAnalyze, Rounds);
  Out.metric("program.parse_s", BySpan["program.parse"] / Rounds, "s");
  for (const char *Stage : {"finite", "det", "semi", "nondet"})
    Out.metric(std::string("termination.stage_s.") + Stage,
               BySpan[std::string("termination.stage.") + Stage] / Rounds,
               "s");
  Out.metric("termination.stage_accept_ratio",
             Tally.Attempts ? static_cast<double>(Tally.Built) /
                                  static_cast<double>(Tally.Attempts)
                            : 0,
             "1");
  Out.metric("termination.budget_overshoot_s", Overshoot, "s");
  Out.metric("trace.overhead_s", median(Traced) - median(Untraced), "s");

  printLayerTable("scaled", Rec.spans(), TracedWall,
                  "traced wall of " + std::to_string(Traced.size()) +
                      " round(s) of the main task set");
  std::printf("scaled: tracing overhead %.6f s per round (traced %.6f s, "
              "untraced %.6f s)\n",
              median(Traced) - median(Untraced), median(Traced),
              median(Untraced));
  printPredictions();
  if (!O.SpansPath.empty() && !Rec.write(O.SpansPath))
    std::fprintf(stderr, "termbench: cannot write %s\n", O.SpansPath.c_str());
  return Out;
}
