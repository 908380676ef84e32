//===- termination/Analyzer.h - The termination analysis loop -*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level refinement loop of Figure 1: represent the program as an
/// all-accepting Büchi automaton; repeatedly sample an ultimately periodic
/// word from the remaining language, prove the lasso terminating,
/// generalize it to a certified module through the configured stage
/// sequence, and remove the module's language with the on-the-fly
/// difference. Termination is proved when the remaining language empties.
///
/// The loop is two-sided: a lasso that resists every termination stage is
/// handed to the recurrence prover (src/nontermination), and a validated
/// recurrent set or executable cycle ends the run with NONTERMINATING.
///
/// All the knobs evaluated in Section 7 are here: single-stage vs
/// multi-stage, the stage sequences (i)/(ii)/(iii), NCSB-Original vs
/// NCSB-Lazy, and the subsumption antichain.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_TERMINATION_ANALYZER_H
#define TERMCHECK_TERMINATION_ANALYZER_H

#include "automata/Ncsb.h"
#include "automata/Scc.h"
#include "nontermination/RecurrenceProver.h"
#include "support/CancellationToken.h"
#include "support/Error.h"
#include "support/ResourceGuard.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "termination/Generalize.h"

#include <string_view>

namespace termcheck {

/// One generalization attempt in the multi-stage sequence.
enum class Stage : uint8_t {
  Finite,            ///< M_fin (only applicable to infeasible stems)
  Deterministic,     ///< M_det
  Semideterministic, ///< M_semi
  Nondeterministic,  ///< M_nondet
};

/// How subtract() complements certified modules.
enum class ComplementStrategy : uint8_t {
  /// The historical chain: finite-trace, then Kurshan DBA, then NCSB, then
  /// the word-only fallback.
  Auto,
  /// Try the modular complement first: cut the module down to the states
  /// that still reach its accepting SCCs and complement the cut with the
  /// finite-trace, DBA or NCSB construction. Falls back to Auto's chain
  /// when none fits.
  Modular,
};

/// Analyzer configuration (the Section 7 evaluation axes).
struct AnalyzerOptions {
  /// Stage sequence tried in order after the implicit stage 0; the
  /// paper's sequence (i) skips M_det, (ii) skips M_semi, (iii) tries all.
  std::vector<Stage> Sequence = sequenceSkipDet();
  /// Single-stage mode: always generalize straight to M_nondet.
  bool MultiStage = true;
  /// Which NCSB variant complements semideterministic modules.
  NcsbVariant Ncsb = NcsbVariant::Lazy;
  /// Module complementation strategy (see ComplementStrategy).
  ComplementStrategy Complement = ComplementStrategy::Auto;
  /// Subsumption antichain in the difference construction (Section 6).
  bool UseSubsumption = true;
  /// Wall-clock budget in seconds (0 = unlimited).
  double TimeoutSeconds = 0;
  /// Refinement-iteration cap (0 = unlimited).
  uint64_t MaxIterations = 0;
  /// Optional external cancellation (non-owning; must outlive the run).
  /// The portfolio runner installs one shared token into every racing
  /// configuration and cancels it when a winner emerges; the analyzer
  /// polls it wherever it polls the wall-clock budget.
  const CancellationToken *Cancel = nullptr;
  /// Quotient the remaining automaton by direct-simulation equivalence
  /// after each difference (a language-preserving reduction; applied while
  /// the automaton has at most 600 states).
  bool ReduceRemaining = true;
  /// Attempt a nontermination proof (closed recurrent set or executable
  /// witness; src/nontermination) whenever a sampled lasso resists every
  /// termination stage, instead of giving up with Unknown immediately.
  bool ProveNontermination = true;
  /// Budgets of the recurrence prover.
  RecurrenceOptions Nonterm;
  /// When a lasso is unproven in *both* directions, subtract just that
  /// word and keep sampling -- a different lasso of the same program may
  /// still admit a nontermination proof. At most this many words are
  /// skipped; once any word was skipped the run can no longer conclude
  /// Terminating (the skipped execution is unaccounted for), so the hunt
  /// ends in Nonterminating or Unknown.
  uint32_t UnknownLassoBudget = 8;
  /// Hard cap on live states of one subtraction (product states plus
  /// complement macro-states); 0 = unlimited. A capped subtraction falls
  /// back to word-only removal, mirroring RankComplementOracle's input cap
  /// for the rank construction. The CLI exposes this as --max-states.
  uint64_t MaxProductStates = 0;
  /// Optional shared resource budget (non-owning; must outlive the run).
  /// Polled wherever the wall-clock budget is polled; exhaustion ends the
  /// run with TIMEOUT instead of letting a subtraction OOM the process.
  ResourceGuard *Guard = nullptr;
  /// Optional trace handle (non-owning; must outlive the run). Null means
  /// tracing is disabled, and every emit site checks the pointer before
  /// building any event payload, so the hot paths pay nothing. The same
  /// handle is forwarded into the recurrence prover and may be shared by
  /// concurrent portfolio entrants (Trace is thread-safe).
  Trace *Tracer = nullptr;

  /// The paper's stage sequences for the Section 7 ablation.
  static std::vector<Stage> sequenceSkipDet() {
    return {Stage::Finite, Stage::Semideterministic,
            Stage::Nondeterministic};
  }
  static std::vector<Stage> sequenceSkipSemi() {
    return {Stage::Finite, Stage::Deterministic, Stage::Nondeterministic};
  }
  static std::vector<Stage> sequenceAll() {
    return {Stage::Finite, Stage::Deterministic, Stage::Semideterministic,
            Stage::Nondeterministic};
  }
};

/// Final verdict of one analysis run.
enum class Verdict : uint8_t {
  Terminating,    ///< every path is covered by a certified module
  Nonterminating, ///< a lasso carries a validated NontermCertificate
  Unknown,        ///< some lasso could be proved in neither direction
  Timeout,        ///< budget exhausted
  Cancelled,      ///< externally cancelled (lost the portfolio race)
};

/// \returns true when the verdict settles the query: the program was
/// proved terminating or nonterminating. Unknown is NOT conclusive -- it
/// carries a counterexample but no proof -- so a portfolio race is decided
/// by the first Terminating/Nonterminating verdict and an Unknown entrant
/// can never outrace one.
inline bool isConclusive(Verdict V) {
  return V == Verdict::Terminating || V == Verdict::Nonterminating;
}

const char *verdictName(Verdict V);

/// Inverse of verdictName. \returns false (leaving \p V untouched) when
/// \p Name is not one of the five stable verdict names; the termcheckd
/// sandbox uses it to validate verdicts marshalled back from workers.
bool verdictFromName(std::string_view Name, Verdict &V);

/// Result of one analysis run.
struct AnalysisResult {
  Verdict V = Verdict::Unknown;
  /// The certified modules that jointly cover the program.
  std::vector<CertifiedModule> Modules;
  /// The nontermination proof (present exactly when V == Nonterminating;
  /// its validate() has already passed).
  std::optional<NontermCertificate> Nonterm;
  /// The offending lasso word (Nonterminating / Unknown).
  std::optional<LassoWord> Counterexample;
  /// Counters: modules per kind, iterations, product/complement sizes.
  Statistics Stats;
  double Seconds = 0;
};

/// Converts the CFG into the all-accepting program automaton A_P of
/// Figure 2b (locations are states, statements are symbols).
Buchi programToBuchi(const Program &P);

/// The Figure 1 analysis loop.
class TerminationAnalyzer {
public:
  TerminationAnalyzer(Program &P, AnalyzerOptions Opts = {})
      : P(P), Opts(std::move(Opts)) {}

  AnalysisResult run();

private:
  Program &P;
  AnalyzerOptions Opts;
  /// Polled inside generalization and the (otherwise uninterruptible)
  /// difference engine so a single generalize call or subtraction cannot
  /// overrun the wall-clock budget.
  std::function<bool()> BudgetHook;

  /// Tries the configured stages; \returns the first module containing the
  /// lasso word (M_nondet is the final fallback when configured, and M_uv
  /// itself contains the word), or std::nullopt once BudgetHook fired.
  std::optional<CertifiedModule> generalize(const Lasso &L,
                                            const LassoWord &W,
                                            const LassoProof &Proof,
                                            Statistics &Stats);

  /// Subtracts the module language from \p Remaining.
  Buchi subtract(const Buchi &Remaining, const CertifiedModule &M,
                 Statistics &Stats);
};

} // namespace termcheck

#endif // TERMCHECK_TERMINATION_ANALYZER_H
