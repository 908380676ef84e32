//===- driver/Bench.h - Shared types of the termbench driver ---*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the command-line options,
/// the result a workload hands back (verdict accounting plus named metrics
/// with units), and the small statistics helpers the metric definitions in
/// README.md are written in terms of.
///
//===----------------------------------------------------------------------===//

#ifndef TERMBENCH_BENCH_H
#define TERMBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

namespace termbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  /// How long the measured phase runs (set-up not included).
  double Seconds = 10;
  /// false: end-to-end metrics, untraced. true: per-layer metrics from a
  /// traced run (which also measures untraced rounds for the overhead).
  bool Traced = false;
  /// The checkout root (inputs under benchmarks/ are read from here).
  std::string Root = ".";
  /// The termcheckd binary the batch workload starts.
  std::string Daemon;
  /// Where a traced run writes its spans (empty = not written).
  std::string SpansPath;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload hands back to main(): the verdict accounting of the
/// result line, the metrics, and a line per failure for the log.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  std::vector<Metric> Metrics;

  void fail(const std::string &Why) {
    ++Failed;
    Failures.push_back(Why);
  }
  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
};

Outcome runScaled(const Options &O);
Outcome runBatch(const Options &O);
Outcome runNcsb(const Options &O);

/// Median (0 for an empty sample).
double median(std::vector<double> V);

/// The tail statistic of the benchmark: the highest percentile with at
/// least ten samples beyond it. \p Failed samples count as beyond every
/// percentile (a failed or refused task misses any latency limit).
struct Tail {
  double Value = 0;
  double Percentile = 0; ///< in percent
  size_t Beyond = 0;     ///< samples strictly above the reported one
  size_t Samples = 0;
};
Tail tailOf(std::vector<double> V, size_t Failed = 0);

/// Peak resident set (VmHWM) of process \p Pid ("self" = this one), in MB.
double peakRssMb(const std::string &Pid = "self");

/// Reads a whole file; \returns false when it cannot be opened.
bool readFile(const std::string &Path, std::string &Out);

} // namespace termbench

#endif // TERMBENCH_BENCH_H
