//===- automata/PerfCounters.h - Hot-path perf counters -------*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thread-local counters for the automata hot paths: CSR transition-index
/// rebuilds (Buchi), macro-state intern-table hits/misses (Interner), and
/// product arcs memoized (the difference engine's arc pool).
///
/// They are thread-local rather than per-object because the structures that
/// bump them (every Buchi, every oracle's intern table) are created and
/// destroyed deep inside the refinement loop, long before the analyzer
/// assembles its Statistics bag. An analysis run executes entirely on one
/// thread (the portfolio schedules whole runs onto pool threads), so a
/// snapshot/delta pair around TerminationAnalyzer::run() attributes the
/// counts to exactly that run -- deterministically, with no atomics on the
/// hot path.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_AUTOMATA_PERFCOUNTERS_H
#define TERMCHECK_AUTOMATA_PERFCOUNTERS_H

#include <cstdint>

namespace termcheck {
namespace perf {

/// The counter bag. Values only ever increase; consumers subtract a
/// snapshot taken at the start of the region they want to attribute.
struct Counters {
  /// Lazy CSR transition-index builds (Buchi::ensureIndex misses).
  uint64_t CsrRebuilds = 0;
  /// Intern-table lookups that found an existing macro-state.
  uint64_t InternHits = 0;
  /// Intern-table lookups that created a fresh macro-state.
  uint64_t InternMisses = 0;
  /// Product arcs stored in the difference engine's arc pool.
  uint64_t ArcsMemoized = 0;
};

/// This thread's counter bag.
inline Counters &local() {
  thread_local Counters C;
  return C;
}

} // namespace perf
} // namespace termcheck

#endif // TERMCHECK_AUTOMATA_PERFCOUNTERS_H
