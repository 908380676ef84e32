//===- termination/Portfolio.cpp - Parallel configuration races ----------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "termination/Portfolio.h"

#include "support/CancellationToken.h"
#include "support/Error.h"
#include "support/ResourceGuard.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <optional>

using namespace termcheck;

std::vector<PortfolioConfig> termcheck::defaultPortfolio(size_t K) {
  struct Entry {
    const char *Name;
    std::vector<Stage> (*Seq)();
    bool NontermBiased;
    bool Modular;
  };
  // Every entrant after entry 0 (the library default) decides some
  // program clearly faster than the others (the roster audits in
  // ROADMAP.md): sequence (iii) where M_det fits (moded_stride), and the
  // modular entrant on deep loop nests, whose stage-4 modules its co-reach
  // cut complements where the monolithic chain degrades to word-only
  // removal. Every entrant runs the recurrence prover; the nonterm-biased
  // one races with larger CEGIS/witness budgets and a longer unknown-skip
  // hunt.
  static const Entry Roster[] = {
      {"seq_i-lazy-sub", AnalyzerOptions::sequenceSkipDet, false, false},
      {"seq_iii-lazy-sub", AnalyzerOptions::sequenceAll, false, false},
      {"nonterm-modular-deep", AnalyzerOptions::sequenceSkipDet, true, true},
  };
  static_assert(std::size(Roster) == PortfolioRosterSize);
  K = std::clamp<size_t>(K, 1, PortfolioRosterSize);

  std::vector<PortfolioConfig> Out;
  Out.reserve(K);
  for (size_t I = 0; I < K; ++I) {
    PortfolioConfig C;
    C.Name = Roster[I].Name;
    C.Opts.Sequence = Roster[I].Seq();
    if (Roster[I].Modular)
      C.Opts.Complement = ComplementStrategy::Modular;
    if (Roster[I].NontermBiased) {
      C.Opts.Nonterm.MaxCegisRounds = 16;
      C.Opts.Nonterm.MaxWitnessTrials = 32;
      C.Opts.Nonterm.MaxUnroll = 128;
      C.Opts.Nonterm.TrialValueRange = 16;
      C.Opts.UnknownLassoBudget = 32;
    }
    Out.push_back(std::move(C));
  }
  return Out;
}

namespace {

AnalyzerOptions effectiveOptions(const PortfolioConfig &C,
                                 const PortfolioOptions &PO,
                                 const CancellationToken *Token,
                                 ResourceGuard *Guard) {
  AnalyzerOptions O = C.Opts;
  if (PO.TimeoutSeconds > 0)
    O.TimeoutSeconds = PO.TimeoutSeconds;
  if (PO.DisableNonterm)
    O.ProveNontermination = false;
  if (PO.MaxProductStates != 0)
    O.MaxProductStates = PO.MaxProductStates;
  O.Cancel = Token;
  O.Guard = Guard;
  O.Tracer = PO.Tracer;
  return O;
}

/// Folds one finished run into the merged dump. Only deterministic
/// counters are recorded -- no wall-clock times -- so the Jobs == 1 dump
/// is byte-for-byte reproducible.
void recordRun(Statistics &Merged, const PortfolioConfig &C,
               const AnalysisResult &R) {
  const std::string Prefix = "cfg." + C.Name + ".";
  // Timers are excluded: the merged dump must stay byte-for-byte
  // reproducible with Jobs == 1 and wall-clock never is. The winner's own
  // timers stay available on Result.Stats (the run report embeds them).
  Merged.mergePrefixed(R.Stats, Prefix, /*IncludeTimes=*/false);
  Merged.add(Prefix + "verdict." + verdictName(R.V));
  Merged.add("portfolio.started");
  if (isConclusive(R.V))
    Merged.add("portfolio.conclusive");
  else if (R.V == Verdict::Unknown)
    Merged.add("portfolio.unknown");
  else if (R.V == Verdict::Cancelled)
    Merged.add("portfolio.cancelled");
  else
    Merged.add("portfolio.timeout");
}

/// Folds one quarantined entrant into the merged dump. The entrant is
/// retired from the race -- it produced no result slot -- but its failure
/// kind stays visible for diagnosis.
void recordFault(Statistics &Merged, const PortfolioConfig &C,
                 const std::string &Kind) {
  Merged.add("portfolio.started");
  Merged.add("portfolio.faulted");
  Merged.add("cfg." + C.Name + ".fault." + Kind);
}

/// One race over a roster: every entrant's result slot, fault and
/// timeline, and the token the winner trips to stop the others. runEntrant
/// is the one entrant routine -- called inline in roster order when
/// Jobs == 1, and from pool workers when Jobs > 1 -- and finalize runs
/// once, after the last entrant returned.
class Race {
public:
  Race(const Program &P, const std::vector<PortfolioConfig> &Configs,
       const PortfolioOptions &Opts)
      : P(P), Configs(Configs), Opts(Opts), Token(Opts.Cancel),
        Slots(Configs.size()), Entrants(Configs.size()),
        Winner(Configs.size()) {
    for (size_t I = 0; I < Configs.size(); ++I)
      Entrants[I].Name = Configs[I].Name;
    // One guard meters the whole race: entrants draw from a shared budget,
    // so K configurations cannot multiply the memory footprint by K.
    if (Opts.GuardLimits.MaxStates != 0) {
      GuardStorage.emplace(Opts.GuardLimits);
      Guard = &*GuardStorage;
    }
  }
  Race(const Race &) = delete;
  Race &operator=(const Race &) = delete;

  /// Runs entrant \p I, unless a winner or the caller's Cancel already
  /// stopped the race.
  void runEntrant(size_t I) {
    if (Token.cancelled())
      return;
    Trace *Tracer = Opts.Tracer;
    // Only this call writes timeline slot I, and finalize runs after the
    // last entrant returned, so the slot needs no lock.
    EntrantTimeline &TL = Entrants[I];
    TL.Started = true;
    TL.SpawnSeconds = Watch.seconds();
    if (Tracer)
      Tracer->emit(TraceEvent(TraceEventKind::EntrantSpawn)
                       .with("entrant", Configs[I].Name)
                       .with("index", static_cast<int64_t>(I)));
    // Quarantine boundary: an entrant that throws is retired but takes
    // neither the race nor its thread down. errorOrOf folds everything
    // derived from std::exception; a truly foreign throw (throw 42;) is
    // caught here.
    ErrorOr<AnalysisResult> R = [&]() -> ErrorOr<AnalysisResult> {
      try {
        return errorOrOf([&] {
          Program Local = P;
          TerminationAnalyzer A(
              Local, effectiveOptions(Configs[I], Opts, &Token, Guard));
          return A.run();
        });
      } catch (...) {
        std::lock_guard<std::mutex> Lock(M);
        ++ForeignEscapes;
        return ErrorOr<AnalysisResult>(EngineError(
            ErrorKind::InternalInvariant,
            "non-standard exception escaped a portfolio entrant"));
      }
    }();
    TL.FinishSeconds = Watch.seconds();
    std::lock_guard<std::mutex> Lock(M);
    if (!R.ok()) {
      TL.Faulted = true;
      TL.FaultKind = errorKindName(R.error().kind());
      if (Tracer)
        Tracer->emit(TraceEvent(TraceEventKind::EntrantFault)
                         .with("entrant", Configs[I].Name)
                         .with("kind", TL.FaultKind));
      return;
    }
    TL.V = R.value().V;
    if (Tracer)
      Tracer->emit(TraceEvent(TraceEventKind::EntrantResult)
                       .with("entrant", Configs[I].Name)
                       .with("verdict", verdictName(TL.V)));
    if (isConclusive(TL.V) && Winner == Configs.size()) {
      Winner = I;
      TL.Won = true;
      Token.cancel();
      if (Tracer)
        Tracer->emit(TraceEvent(TraceEventKind::RaceDecided)
                         .with("winner", Configs[I].Name));
    }
    Slots[I] = std::move(R.value());
  }

  /// Merges the per-entrant slots into the race's result, in roster order.
  PortfolioRunResult finalize() {
    const size_t None = Configs.size();
    PortfolioRunResult Out;
    Out.Merged.add("portfolio.configs", static_cast<int64_t>(Configs.size()));
    for (size_t I = 0; I < Configs.size(); ++I) {
      if (Slots[I])
        recordRun(Out.Merged, Configs[I], *Slots[I]);
      if (Entrants[I].Faulted) {
        ++Out.FaultedEntrants;
        recordFault(Out.Merged, Configs[I], Entrants[I].FaultKind);
      }
    }
    Out.Entrants = std::move(Entrants);
    if (ForeignEscapes != 0)
      Out.Merged.add("portfolio.worker_escapes",
                     static_cast<int64_t>(ForeignEscapes));

    Out.WinnerIndex = Winner;
    if (Winner != None) {
      Out.Result = std::move(*Slots[Winner]);
      Out.WinnerName = Configs[Winner].Name;
      Out.Merged.add("portfolio.winner_index", static_cast<int64_t>(Winner));
    } else if (size_t Pick = fallback(); Pick != None) {
      Out.Result = std::move(*Slots[Pick]);
    } else if (Opts.Cancel && Opts.Cancel->cancelled()) {
      Out.Result.V = Verdict::Cancelled;
      Out.WinnerName = "<cancelled before any entrant ran>";
    } else {
      Out.Result.V = Verdict::Unknown;
      Out.WinnerName = "<all entrants faulted>";
    }
    Out.Seconds = Watch.seconds();
    return Out;
  }

private:
  /// Nobody was conclusive: the first Unknown result (it carries a
  /// counterexample lasso), else the first finished one, else None.
  size_t fallback() const {
    for (size_t I = 0; I < Slots.size(); ++I)
      if (Slots[I] && Slots[I]->V == Verdict::Unknown)
        return I;
    for (size_t I = 0; I < Slots.size(); ++I)
      if (Slots[I])
        return I;
    return Slots.size();
  }

  const Program &P;
  const std::vector<PortfolioConfig> &Configs;
  const PortfolioOptions &Opts;
  Timer Watch;
  /// Tripped by the winner; also reports the caller's Cancel.
  CancellationToken Token;
  std::optional<ResourceGuard> GuardStorage;
  ResourceGuard *Guard = nullptr;

  std::mutex M;
  std::vector<std::optional<AnalysisResult>> Slots;
  std::vector<EntrantTimeline> Entrants;
  size_t Winner;
  size_t ForeignEscapes = 0;
};

} // namespace

PortfolioRunResult
termcheck::runPortfolio(const Program &P,
                        const std::vector<PortfolioConfig> &Configs,
                        const PortfolioOptions &Opts) {
  if (Configs.empty()) {
    PortfolioRunResult Out;
    Out.Result.V = Verdict::Unknown;
    Out.WinnerName = "<empty portfolio>";
    return Out;
  }
  Race R(P, Configs, Opts);
  const size_t Jobs =
      Opts.Jobs == 0 ? ThreadPool::defaultConcurrency() : Opts.Jobs;
  if (Jobs == 1) {
    // No threads: roster order, and a decided race starts nobody else, so
    // identical inputs yield identical dumps.
    for (size_t I = 0; I < Configs.size(); ++I)
      R.runEntrant(I);
  } else {
    ThreadPool Pool(std::min(Jobs, Configs.size()));
    for (size_t I = 0; I < Configs.size(); ++I)
      Pool.submit([&R, I] { R.runEntrant(I); });
    Pool.waitIdle();
  }
  return R.finalize();
}
