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
/// it races K configurations over the same program on a thread pool, the
/// first conclusive verdict (TERMINATING or NONTERMINATING -- an Unknown
/// entrant never decides the race) wins, and the
/// losers are torn down through a shared CancellationToken polled at every
/// budget-hook site (refinement loop, difference DFS, NCSB splits), so a
/// runaway subtraction in a losing configuration cannot delay the winner.
///
/// Every worker analyzes its own copy of the program (the lasso prover
/// interns auxiliary variables into the program's VarTable, so sharing one
/// instance would race); the winner's result is therefore bit-identical to
/// what a plain sequential run of the winning configuration produces.
///
/// With Jobs == 1 the runner degrades to a fully deterministic fallback:
/// configurations run to completion one by one, in roster order, stopping
/// at the first conclusive verdict. Statistics dumps of two such runs are
/// byte-identical (the determinism guard in tests/portfolio_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_TERMINATION_PORTFOLIO_H
#define TERMCHECK_TERMINATION_PORTFOLIO_H

#include "termination/Analyzer.h"

#include <functional>
#include <memory>

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
  /// Optional external cancellation (non-owning). The Jobs == 1 sequential
  /// fallback threads it into every entrant, so a deadline monitor or a
  /// draining server can tear down a deterministic run mid-entrant
  /// (parallel races are cancelled through PortfolioRace::cancel()
  /// instead). Cancellation does not perturb determinism: two uncancelled
  /// runs still dump byte-identical statistics.
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
  /// the roster-first result (a TIMEOUT).
  AnalysisResult Result;
  /// Roster index and name of the winner (index == Configs.size() means
  /// nobody was conclusive).
  size_t WinnerIndex = 0;
  std::string WinnerName;
  /// Entrants quarantined because their worker threw (EngineError or a
  /// foreign exception). A faulted entrant never decides the race; its
  /// failure is recorded under `cfg.<name>.fault.<kind>` in Merged. When
  /// EVERY entrant faults the race reports Unknown, never a crash.
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

/// Races \p Configs over \p P. \p P itself is only read (each worker
/// copies it), so the caller's program is untouched.
PortfolioRunResult runPortfolio(const Program &P,
                                const std::vector<PortfolioConfig> &Configs,
                                const PortfolioOptions &Opts = {});

class ThreadPool;

/// An event-driven portfolio race over an externally owned thread pool.
///
/// `runPortfolio` blocks its caller until the race is over, which is right
/// for the CLI but wrong for a server multiplexing many programs over one
/// shared pool: a job must not pin a pool worker just to wait for its own
/// entrants. PortfolioRace is the non-blocking core both sit on -- start()
/// submits one pool task per entrant and returns immediately; the
/// completion callback fires exactly once, on whichever worker finishes
/// last, after every entrant has finished, faulted, or been skipped by
/// cancellation. `runPortfolio` (Jobs > 1) wraps it with a private pool
/// and a condition-variable wait; `termcheckd`'s scheduler starts many
/// races on one shared pool and finalizes each job in its callback
/// (two-tier scheduling, DESIGN.md section 14).
///
/// Race state is shared-ownership: the entrant tasks and the callback keep
/// it alive, so the PortfolioRace handle itself may be dropped as soon as
/// start() returns. cancel() (a deadline monitor, a draining server)
/// trips the same sticky token the winner uses to tear down losers, so an
/// externally cancelled race still completes through the callback with
/// every entrant accounted for.
class PortfolioRace {
public:
  /// Copies \p P once; each entrant copies again from that master copy
  /// (the lasso prover interns variables into the program's VarTable, so
  /// entrants must never share an instance).
  PortfolioRace(const Program &P, std::vector<PortfolioConfig> Configs,
                const PortfolioOptions &Opts);

  /// Submits every entrant to \p Pool and returns. \p Done runs exactly
  /// once, on a pool worker (or synchronously here when the roster is
  /// empty). start() may be called at most once per race.
  void start(ThreadPool &Pool, std::function<void(PortfolioRunResult)> Done);

  /// Externally cancels the race: queued entrants never start, running
  /// ones notice at their next budget poll and finish with CANCELLED. The
  /// completion callback still fires after the last one drains.
  void cancel();

private:
  struct State;
  std::shared_ptr<State> St;
};

} // namespace termcheck

#endif // TERMCHECK_TERMINATION_PORTFOLIO_H
