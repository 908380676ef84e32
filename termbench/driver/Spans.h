//===- driver/Spans.h - In-memory spans and the layer table ----*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Traced runs of the benchmark record a span around every call into a
/// layer's public functions. A span carries its name ("<layer>.<what>"),
/// start, end, parent span and task id; spans stay in memory and are
/// written out as JSON lines when the run ends.
///
/// Two kinds of span exist. Observed spans are timed by the benchmark
/// around a call, or between two trace events the engine already emits.
/// Derived spans come from a duration the program reports (a run-report
/// timer, a result line's queue_s/run_s): the program gives no start
/// time, so a derived span is placed at the start of its parent and
/// flagged, and only its duration is meaningful.
///
//===----------------------------------------------------------------------===//

#ifndef TERMBENCH_SPANS_H
#define TERMBENCH_SPANS_H

#include "support/Timer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace termbench {

struct Span {
  std::string Name;
  double Start = 0; ///< seconds since the recorder's epoch
  double End = 0;
  int64_t Parent = -1;
  int64_t Task = -1;
  bool Derived = false;

  double seconds() const { return End - Start; }
};

class SpanRecorder {
public:
  double now() const { return Epoch.seconds(); }

  /// Opens an observed span starting now; close it with end().
  int64_t begin(std::string Name, int64_t Parent, int64_t Task);
  void end(int64_t Id) { Spans[Id].End = now(); }

  /// Records a span whose bounds are already known.
  int64_t add(std::string Name, double Start, double End, int64_t Parent,
              int64_t Task, bool Derived);

  /// Records a derived span of \p Seconds under \p Parent.
  int64_t derived(std::string Name, double Seconds, int64_t Parent) {
    const Span &P = Spans[Parent];
    return add(std::move(Name), P.Start, P.Start + Seconds, Parent, P.Task,
               true);
  }

  const std::vector<Span> &spans() const { return Spans; }
  const Span &operator[](int64_t Id) const { return Spans[Id]; }

  /// Writes every span as one JSON object per line.
  bool write(const std::string &Path) const;

private:
  termcheck::Timer Epoch;
  std::vector<Span> Spans;
};

/// Prints the layer table of a traced run: per span name its layer, self
/// time (duration minus the durations of its child spans), share of
/// \p Basis, and span count; then a remainder row so the rows sum to
/// \p Basis. \p BasisName says what the basis is.
void printLayerTable(const std::string &Workload,
                     const std::vector<Span> &Spans, double Basis,
                     const std::string &BasisName);

/// Prints which end-to-end metric and workload each per-layer metric is
/// expected to move (README.md, "Per-layer metrics").
void printPredictions();

} // namespace termbench

#endif // TERMBENCH_SPANS_H
