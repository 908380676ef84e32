//===- driver/Spans.cpp - In-memory spans and the layer table -------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

using namespace termbench;

int64_t SpanRecorder::begin(std::string Name, int64_t Parent, int64_t Task) {
  double T = now();
  return add(std::move(Name), T, T, Parent, Task, false);
}

int64_t SpanRecorder::add(std::string Name, double Start, double End,
                          int64_t Parent, int64_t Task, bool Derived) {
  Spans.push_back({std::move(Name), Start, End, Parent, Task, Derived});
  return static_cast<int64_t>(Spans.size()) - 1;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    termcheck::json::Writer W(OS, /*Pretty=*/false);
    W.beginObject();
    W.field("id", static_cast<int64_t>(I));
    W.field("name", S.Name);
    W.field("start_s", S.Start);
    W.field("end_s", S.End);
    W.field("parent", S.Parent);
    W.field("task", S.Task);
    W.field("derived", S.Derived);
    W.endObject();
    W.finish();
  }
  return static_cast<bool>(OS.flush());
}

void termbench::printLayerTable(const std::string &Workload,
                                const std::vector<Span> &Spans, double Basis,
                                const std::string &BasisName) {
  std::vector<double> ChildSum(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildSum[S.Parent] += S.seconds();

  struct Row {
    double Self = 0;
    size_t Count = 0;
  };
  std::map<std::string, Row> Rows;
  std::map<std::string, double> Layers;
  double Covered = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    double Self = Spans[I].seconds() - ChildSum[I];
    Row &R = Rows[Spans[I].Name];
    R.Self += Self;
    ++R.Count;
    Layers[Spans[I].Name.substr(0, Spans[I].Name.find('.'))] += Self;
    Covered += Self;
  }
  std::vector<std::pair<std::string, Row>> Sorted(Rows.begin(), Rows.end());
  std::stable_sort(Sorted.begin(), Sorted.end(), [](auto &A, auto &B) {
    return A.second.Self > B.second.Self;
  });

  auto Share = [Basis](double S) { return Basis > 0 ? 100.0 * S / Basis : 0; };
  std::printf("layer table [%s]: basis %.6f s = %s\n", Workload.c_str(),
              Basis, BasisName.c_str());
  std::printf("  %-34s %-16s %12s %8s %8s\n", "span", "layer", "self_s",
              "share", "count");
  for (const auto &[Name, R] : Sorted)
    std::printf("  %-34s %-16s %12.6f %7.2f%% %8zu\n", Name.c_str(),
                Name.substr(0, Name.find('.')).c_str(), R.Self, Share(R.Self),
                R.Count);
  std::printf("  %-34s %-16s %12.6f %7.2f%%\n", "remainder (outside spans)",
              "-", Basis - Covered, Share(Basis - Covered));
  std::printf("  %-34s %-16s %12.6f %7.2f%%\n", "total", "", Basis,
              Share(Basis));
  std::printf("layer totals [%s]:", Workload.c_str());
  for (const auto &[Layer, Self] : Layers)
    std::printf(" %s %.2f%%", Layer.c_str(), Share(Self));
  std::printf(" remainder %.2f%%\n", Share(Basis - Covered));
}

namespace {

struct Prediction {
  const char *Metric;
  const char *Moves;
  const char *On;
};

// README.md, "Per-layer metrics": the end-to-end metric each layer metric
// is expected to move, and on which workload. Later changes cite rows by
// metric name.
const Prediction Predictions[] = {
    {"program.parse_s", "latency_p50_s (negligible)", "scaled"},
    {"termination.analyze_s", "wall_s, latency_*", "scaled, batch"},
    {"termination.generalize_s", "wall_s, latency_p50_s; latency_tail_s",
     "scaled; batch"},
    {"termination.stage_s.{finite,det,semi,nondet}", "wall_s", "scaled"},
    {"termination.stage_accept_ratio", "wall_s", "scaled"},
    {"termination.prove_s", "wall_s (<=3%), latency_p50_s", "scaled, batch"},
    {"termination.loop_self_s", "wall_s", "scaled"},
    {"termination.budget_overshoot_s", "wall_s, decided_share",
     "scaled tail"},
    {"termination.{iterations,generalize_calls,modules.*}", "wall_s",
     "scaled"},
    {"nontermination.prove_s", "latency_p50_s", "batch"},
    {"automata.{sample_s,subtract_s,reduce_s}", "wall_s (<=5%), peak_rss_mb",
     "scaled"},
    {"automata.{product_states,...,intern_hit_ratio}", "peak_rss_mb, wall_s",
     "scaled"},
    {"automata.{prepare_sdba_s,ncsb_original_s,ncsb_lazy_s,difference_s}",
     "wall_s", "ncsb"},
    {"automata.{ncsb_*_states,ncsb_lazy_transitions,subsumption_*}",
     "wall_s, peak_rss_mb", "ncsb"},
    {"server.queue_s", "latency_p50_s, latency_tail_s", "batch"},
    {"server.isolation_overhead_s", "jobs_per_s, latency_p50_s", "batch"},
    {"server.transport_s", "latency_p50_s", "batch"},
    {"server.{attempts,retries,queue_full_rejections,pool_busy_share}",
     "jobs_per_s, failed_share", "batch"},
    {"trace.overhead_s", "(none: traced minus untraced wall_s)", "all"},
};

} // namespace

void termbench::printPredictions() {
  std::printf("predictions (layer metric -> end-to-end metric it should "
              "move, on which workload):\n");
  for (const Prediction &P : Predictions)
    std::printf("  %-62s -> %-40s on %s\n", P.Metric, P.Moves, P.On);
}
