//===- driver/Layers.cpp - Per-layer metrics from analyzer reports --------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

using namespace termbench;
using termcheck::Statistics;
namespace json = termcheck::json;

namespace {

/// The layer span a run-report timer stands for.
std::string timerSpanName(const std::string &Timer) {
  if (Timer == "time.sample")
    return "automata.sample";
  if (Timer == "time.subtract")
    return "automata.subtract";
  if (Timer == "time.reduce")
    return "automata.reduce";
  if (Timer == "time.nonterm")
    return "nontermination.prove";
  // time.prove, time.generalize and any timer added later.
  return "termination." + Timer.substr(Timer.find('.') + 1);
}

} // namespace

void termbench::mergeReport(const json::Value &Report, Statistics &S) {
  if (const json::Value *C = Report.find("counters"))
    for (const auto &[K, V] : C->Obj)
      S.add(K, static_cast<int64_t>(V.Num));
  if (const json::Value *M = Report.find("maxima"))
    for (const auto &[K, V] : M->Obj)
      S.recordMax(K, static_cast<int64_t>(V.Num));
  if (const json::Value *T = Report.find("timers_s"))
    for (const auto &[K, V] : T->Obj)
      S.addTime(K, V.Num);
}

Statistics termbench::workCounts(const Statistics &S) {
  Statistics Counts;
  for (const auto &[K, V] : S.counters())
    Counts.add(K, V);
  for (const auto &[K, V] : S.maxima())
    Counts.recordMax(K, V);
  return Counts;
}

int64_t termbench::addTimerSpans(SpanRecorder &Rec, const Statistics &S,
                                 int64_t Analyze) {
  int64_t Generalize = -1;
  for (const auto &[K, V] : S.times()) {
    int64_t Id = Rec.derived(timerSpanName(K), V, Analyze);
    if (K == "time.generalize")
      Generalize = Id;
  }
  return Generalize;
}

void termbench::addAnalyzerMetrics(Outcome &Out, const Statistics &Sum,
                                   double AnalyzeSeconds, double Rounds) {
  auto PerRound = [Rounds](double V) { return V / Rounds; };
  auto Count = [&](const char *Name, const char *Counter) {
    Out.metric(Name, PerRound(static_cast<double>(Sum.get(Counter))),
               "count");
  };
  double Timed = 0;
  for (const auto &[K, V] : Sum.times())
    Timed += V;
  Out.metric("termination.analyze_s", PerRound(AnalyzeSeconds), "s");
  Out.metric("termination.loop_self_s", PerRound(AnalyzeSeconds - Timed),
             "s");
  Out.metric("termination.generalize_s",
             PerRound(Sum.getTime("time.generalize")), "s");
  Out.metric("termination.prove_s", PerRound(Sum.getTime("time.prove")), "s");
  Out.metric("nontermination.prove_s", PerRound(Sum.getTime("time.nonterm")),
             "s");
  Out.metric("automata.sample_s", PerRound(Sum.getTime("time.sample")), "s");
  Out.metric("automata.subtract_s", PerRound(Sum.getTime("time.subtract")),
             "s");
  Out.metric("automata.reduce_s", PerRound(Sum.getTime("time.reduce")), "s");

  Count("termination.iterations", "iterations");
  Count("termination.generalize_calls", "perf.generalize_calls");
  Count("termination.modules.finite", "modules.finite");
  Count("termination.modules.semi", "modules.semideterministic");
  Count("termination.modules.nondet", "modules.nondeterministic");
  Count("termination.modules.lasso", "modules.lasso");
  Count("termination.modules.rotated", "modules.rotated");
  Count("automata.product_states", "difference.product_states");
  Count("automata.complement_states", "difference.complement_states");
  Count("automata.subsumption_pruned", "difference.subsumption_pruned");
  Count("automata.arcs_memoized", "difference.arcs_memoized");
  Count("automata.reduce_states_saved", "reduce.states_saved");
  Count("automata.word_fallbacks", "complement.word_fallback");
  Out.metric("automata.remaining_max_states",
             static_cast<double>(Sum.getMax("remaining.max_states")), "count");
  double Hits = static_cast<double>(Sum.get("perf.intern_hits"));
  double Misses = static_cast<double>(Sum.get("perf.intern_misses"));
  Out.metric("automata.intern_hit_ratio",
             Hits + Misses > 0 ? Hits / (Hits + Misses) : 0, "1");
}
