//===- termination/Portfolio.h - Parallel configuration races -*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 7 of the paper shows that no single analyzer configuration
/// dominates: different stage sequences and complement strategies win on
/// different programs. The portfolio runner exploits exactly that:
/// it races K configurations over the same program, the first conclusive
/// verdict (TERMINATING or NONTERMINATING -- an Unknown entrant never
/// decides the race) wins, and the
/// losers are torn down through a shared CancellationToken polled at every
/// budget-hook site (refinement loop, difference DFS, NCSB splits), so a
/// runaway subtraction in a losing configuration cannot delay the winner.
///
/// Every entrant analyzes its own copy of the program (the lasso prover
/// interns auxiliary variables into the program's VarTable, so sharing one
/// instance would race); the winner's result is therefore bit-identical to
/// what a plain sequential run of the winning configuration produces.
///
/// One routine runs every entrant: inline, in roster order, when
/// Jobs == 1, and from a private thread pool when Jobs > 1. With Jobs == 1
/// the race is fully deterministic: configurations run to completion one
/// by one, stopping at the first conclusive verdict. Statistics dumps of
/// two such runs are byte-identical (the determinism guard in
/// tests/portfolio_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_TERMINATION_PORTFOLIO_H
#define TERMCHECK_TERMINATION_PORTFOLIO_H

#include "termination/Analyzer.h"

namespace termcheck {

/// One named entrant of a portfolio race.
struct PortfolioConfig {
  std::string Name;
  AnalyzerOptions Opts;
};

/// Number of entrants in the default roster. The CLIs reject a larger
/// --portfolio count.
inline constexpr size_t PortfolioRosterSize = 3;

/// The deterministic default roster, in order: the library default
/// configuration (`seq_i-lazy-sub`), stage sequence (iii)
/// (`seq_iii-lazy-sub`), and the modular complement strategy with enlarged
/// recurrence-prover budgets (`nonterm-modular-deep`). Every entrant uses
/// NCSB-Lazy and the subsumption antichain; the other Section 7 axes stay
/// reachable through AnalyzerOptions. \p K is clamped to
/// [1, PortfolioRosterSize].
std::vector<PortfolioConfig> defaultPortfolio(size_t K);

/// Portfolio-level knobs (per-configuration knobs live in the roster).
struct PortfolioOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = the deterministic
  /// sequential fallback (no threads are spawned at all).
  size_t Jobs = 0;
  /// When nonzero, overrides every configuration's wall-clock budget.
  double TimeoutSeconds = 0;
  /// Disables the recurrence prover in every entrant (the CLI's
  /// --no-nonterm): verdicts degrade to the pre-nontermination lattice.
  bool DisableNonterm = false;
  /// Per-subtraction live-state cap applied to every entrant (the CLI's
  /// --max-states); 0 = unlimited.
  uint64_t MaxProductStates = 0;
  /// Resource budgets shared by ALL entrants of the race: one guard meters
  /// the race globally, so the combined portfolio (not each entrant
  /// separately) stays under the state/memory budget. All-zero = no guard.
  ResourceGuard::Limits GuardLimits;
  /// Optional shared trace handle (non-owning; Trace is thread-safe, so
  /// all racing entrants emit into the same stream). Also receives the
  /// portfolio's own timeline events (entrant spawn/result/fault, race
  /// decided).
  Trace *Tracer = nullptr;
  /// Optional external cancellation (non-owning), honored at any Jobs:
  /// once it is cancelled no further entrant starts, and running ones end
  /// CANCELLED at their next budget poll. A deadline monitor or a draining
  /// server tears a run down through it. Cancellation does not perturb
  /// determinism: two uncancelled runs still dump byte-identical
  /// statistics.
  const CancellationToken *Cancel = nullptr;
};

/// The per-entrant timeline of one race: when the entrant started, when
/// its result (or quarantine) was recorded, and how it ended. Timestamps
/// are seconds relative to the race start; an entrant cancelled before it
/// ever started has Started == false and zeroed timestamps. The run
/// report's `entrants` array is built from these.
struct EntrantTimeline {
  std::string Name;
  /// The entrant began analyzing (false = cancelled while still queued).
  bool Started = false;
  /// The entrant was quarantined; FaultKind holds the reason.
  bool Faulted = false;
  /// The entrant's conclusive verdict decided the race.
  bool Won = false;
  /// Final verdict (meaningful when Started && !Faulted).
  Verdict V = Verdict::Unknown;
  /// Quarantine reason (errorKindName) when Faulted.
  std::string FaultKind;
  /// Race-relative spawn timestamp in seconds.
  double SpawnSeconds = 0;
  /// Race-relative timestamp at which the result or fault was recorded.
  double FinishSeconds = 0;
};

/// Outcome of a portfolio race.
struct PortfolioRunResult {
  /// The winning run, exactly as the winning configuration's sequential
  /// analyzer produced it. When no configuration is conclusive this holds
  /// the first Unknown result (counterexample included), or failing that
  /// the roster-first finished one (a TIMEOUT or CANCELLED). When no
  /// entrant finished, the verdict is CANCELLED if Cancel was tripped and
  /// UNKNOWN otherwise (every entrant faulted).
  AnalysisResult Result;
  /// Roster index and name of the winner (index == Configs.size() means
  /// nobody was conclusive; the name is then empty, or
  /// "<cancelled before any entrant ran>" / "<all entrants faulted>" when
  /// no entrant finished).
  size_t WinnerIndex = 0;
  std::string WinnerName;
  /// Entrants quarantined because their analysis threw (EngineError or a
  /// foreign exception; a throw not derived from std::exception also
  /// bumps `portfolio.worker_escapes`). A faulted entrant never decides the
  /// race; its failure is recorded under `cfg.<name>.fault.<kind>` in
  /// Merged. When EVERY entrant faults the race reports Unknown, never a
  /// crash.
  size_t FaultedEntrants = 0;
  /// Merged statistics: portfolio-level counters plus every started
  /// configuration's counters namespaced as `cfg.<name>.<counter>`. Only
  /// deterministic counters are merged (no wall-clock), so with Jobs == 1
  /// the dump is reproducible byte for byte.
  Statistics Merged;
  /// One timeline entry per roster entrant, in roster order (present for
  /// every entrant, including quarantined and never-started ones).
  std::vector<EntrantTimeline> Entrants;
  /// Wall-clock seconds of the whole race.
  double Seconds = 0;
};

/// Races \p Configs over \p P and returns once every entrant finished,
/// faulted or was skipped. \p P itself is only read (each entrant copies
/// it), so the caller's program is untouched.
PortfolioRunResult runPortfolio(const Program &P,
                                const std::vector<PortfolioConfig> &Configs,
                                const PortfolioOptions &Opts = {});

} // namespace termcheck

#endif // TERMCHECK_TERMINATION_PORTFOLIO_H
