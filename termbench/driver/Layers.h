//===- driver/Layers.h - Per-layer metrics from analyzer reports -*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-layer numbers an analysis run already reports -- the run
/// report's timers_s, counters and maxima -- turned into the benchmark's
/// per-layer metrics and derived spans. The `scaled` workload reads them
/// from AnalysisResult::Stats, the `batch` workload from the report each
/// termcheckd result line carries; both feed one Statistics bag here.
///
//===----------------------------------------------------------------------===//

#ifndef TERMBENCH_LAYERS_H
#define TERMBENCH_LAYERS_H

#include "Bench.h"
#include "Spans.h"

#include "support/Json.h"
#include "support/Statistics.h"

namespace termbench {

/// Adds the counters, maxima and timers of a run report (the "report"
/// object of a result line) to \p S.
void mergeReport(const termcheck::json::Value &Report,
                 termcheck::Statistics &S);

/// The exact part of a run's statistics: its counters and maxima, without
/// the timers. Repeating a task must reproduce it.
termcheck::Statistics workCounts(const termcheck::Statistics &S);

/// Records one derived child span of \p Analyze per report timer, named by
/// the layer the timer measures (time.generalize ->
/// termination.generalize, time.subtract -> automata.subtract, ...).
/// \returns the id of the termination.generalize span, or -1.
int64_t addTimerSpans(SpanRecorder &Rec, const termcheck::Statistics &S,
                      int64_t Analyze);

/// Adds the analyzer's per-layer metrics to \p Out: \p Sum holds the
/// statistics of \p Rounds repetitions of the task set and
/// \p AnalyzeSeconds the time spent inside TerminationAnalyzer::run over
/// them; every metric is per task set.
void addAnalyzerMetrics(Outcome &Out, const termcheck::Statistics &Sum,
                        double AnalyzeSeconds, double Rounds);

} // namespace termbench

#endif // TERMBENCH_LAYERS_H
