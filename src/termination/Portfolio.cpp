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
#include <condition_variable>
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
                 const EngineError &E) {
  Merged.add("portfolio.started");
  Merged.add("portfolio.faulted");
  Merged.add("cfg." + C.Name + ".fault." + errorKindName(E.kind()));
}

} // namespace

PortfolioRunResult
termcheck::runPortfolio(const Program &P,
                        const std::vector<PortfolioConfig> &Configs,
                        const PortfolioOptions &Opts) {
  Timer Watch;
  PortfolioRunResult Out;
  if (Configs.empty()) {
    Out.Result.V = Verdict::Unknown;
    Out.WinnerName = "<empty portfolio>";
    return Out;
  }

  const size_t None = Configs.size();
  size_t Jobs = Opts.Jobs == 0 ? ThreadPool::defaultConcurrency() : Opts.Jobs;
  Out.Merged.add("portfolio.configs", static_cast<int64_t>(Configs.size()));
  Out.Entrants.resize(Configs.size());
  for (size_t I = 0; I < Configs.size(); ++I)
    Out.Entrants[I].Name = Configs[I].Name;
  Trace *Tracer = Opts.Tracer;

  // One guard meters the whole race: entrants draw from a shared budget,
  // so K configurations cannot multiply the memory footprint by K.
  std::optional<ResourceGuard> GuardStorage;
  ResourceGuard *Guard = nullptr;
  if (Opts.GuardLimits.MaxStates != 0 || Opts.GuardLimits.MaxApproxBytes != 0) {
    GuardStorage.emplace(Opts.GuardLimits);
    Guard = &*GuardStorage;
  }

  if (Jobs == 1) {
    // Deterministic fallback: no threads, roster order, stop at the first
    // conclusive verdict. Identical inputs yield identical dumps. When
    // nobody concludes, the reported result is the first Unknown (it
    // carries a counterexample lasso) and only then the first finished one.
    // A faulted entrant is quarantined and the roster moves on; if every
    // entrant faults the race still returns, with an Unknown verdict.
    Out.WinnerIndex = None;
    bool HaveFallback = false;
    bool FallbackIsUnknown = false;
    for (size_t I = 0; I < Configs.size(); ++I) {
      // An externally cancelled run stops starting entrants, mirroring the
      // parallel race (queued entrants never start after cancel()).
      if (Opts.Cancel && Opts.Cancel->cancelled())
        break;
      EntrantTimeline &TL = Out.Entrants[I];
      TL.Started = true;
      TL.SpawnSeconds = Watch.seconds();
      if (Tracer)
        Tracer->emit(TraceEvent(TraceEventKind::EntrantSpawn)
                         .with("entrant", Configs[I].Name)
                         .with("index", static_cast<int64_t>(I)));
      Program Local = P;
      TerminationAnalyzer A(
          Local, effectiveOptions(Configs[I], Opts, Opts.Cancel, Guard));
      ErrorOr<AnalysisResult> R = errorOrOf([&A] { return A.run(); });
      TL.FinishSeconds = Watch.seconds();
      if (!R.ok()) {
        ++Out.FaultedEntrants;
        recordFault(Out.Merged, Configs[I], R.error());
        TL.Faulted = true;
        TL.FaultKind = errorKindName(R.error().kind());
        if (Tracer)
          Tracer->emit(TraceEvent(TraceEventKind::EntrantFault)
                           .with("entrant", Configs[I].Name)
                           .with("kind", TL.FaultKind));
        continue;
      }
      recordRun(Out.Merged, Configs[I], R.value());
      TL.V = R.value().V;
      if (Tracer)
        Tracer->emit(TraceEvent(TraceEventKind::EntrantResult)
                         .with("entrant", Configs[I].Name)
                         .with("verdict", verdictName(R.value().V)));
      bool Won = isConclusive(R.value().V);
      if (Won || !HaveFallback ||
          (!FallbackIsUnknown && R.value().V == Verdict::Unknown)) {
        HaveFallback = true;
        FallbackIsUnknown = R.value().V == Verdict::Unknown;
        Out.Result = std::move(R.value());
        Out.WinnerIndex = Won ? I : None;
        Out.WinnerName = Won ? Configs[I].Name : "";
      }
      if (Won) {
        TL.Won = true;
        if (Tracer)
          Tracer->emit(TraceEvent(TraceEventKind::RaceDecided)
                           .with("winner", Configs[I].Name));
        break;
      }
    }
    if (!HaveFallback) {
      if (Opts.Cancel && Opts.Cancel->cancelled()) {
        Out.Result.V = Verdict::Cancelled;
        Out.WinnerName = "<cancelled before any entrant ran>";
      } else {
        Out.Result.V = Verdict::Unknown;
        Out.WinnerName = "<all entrants faulted>";
      }
    }
    if (Out.WinnerIndex != None)
      Out.Merged.add("portfolio.winner_index",
                     static_cast<int64_t>(Out.WinnerIndex));
    Out.Seconds = Watch.seconds();
    return Out;
  }

  // The race, delegated to the shared event-driven core on a private pool
  // (the CLI owns the whole process, so a per-race pool is fine there; the
  // server reuses PortfolioRace directly on its shared pool instead). The
  // per-race bookkeeping Out accumulated so far is rebuilt by the race's
  // finalizer, so hand over a fresh result.
  PortfolioRace Race(P, Configs, Opts);
  std::mutex DoneM;
  std::condition_variable DoneCv;
  bool DoneFlag = false;
  PortfolioRunResult Result;
  {
    ThreadPool Pool(std::min(Jobs, Configs.size()));
    Race.start(Pool, [&](PortfolioRunResult R) {
      {
        std::lock_guard<std::mutex> Lock(DoneM);
        Result = std::move(R);
        DoneFlag = true;
      }
      DoneCv.notify_all();
    });
    std::unique_lock<std::mutex> Lock(DoneM);
    DoneCv.wait(Lock, [&] { return DoneFlag; });
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// PortfolioRace
//===----------------------------------------------------------------------===//

struct PortfolioRace::State {
  Program Prog; // master copy; every entrant copies from it
  std::vector<PortfolioConfig> Configs;
  PortfolioOptions Opts;
  Timer Watch;
  CancellationToken Token;
  std::optional<ResourceGuard> GuardStorage;
  ResourceGuard *Guard = nullptr;

  std::mutex M;
  std::vector<std::optional<AnalysisResult>> Slots;
  std::vector<std::optional<EngineError>> Faults;
  std::vector<EntrantTimeline> Entrants;
  size_t Winner;
  size_t ForeignEscapes = 0;
  size_t Remaining;
  std::function<void(PortfolioRunResult)> Done;

  explicit State(const Program &P, std::vector<PortfolioConfig> Cs,
                 const PortfolioOptions &O)
      : Prog(P), Configs(std::move(Cs)), Opts(O),
        Slots(Configs.size()), Faults(Configs.size()),
        Entrants(Configs.size()), Winner(Configs.size()),
        Remaining(Configs.size()) {
    for (size_t I = 0; I < Configs.size(); ++I)
      Entrants[I].Name = Configs[I].Name;
    if (O.GuardLimits.MaxStates != 0 || O.GuardLimits.MaxApproxBytes != 0) {
      GuardStorage.emplace(O.GuardLimits);
      Guard = &*GuardStorage;
    }
  }

  /// Merges the quiescent per-entrant slots into the final result. Called
  /// exactly once, by whichever worker decrements Remaining to zero; at
  /// that point no other thread touches the race, so no lock is needed.
  PortfolioRunResult finalize() {
    const size_t None = Configs.size();
    PortfolioRunResult Out;
    Out.Merged.add("portfolio.configs", static_cast<int64_t>(Configs.size()));
    Out.Entrants = std::move(Entrants);
    for (size_t I = 0; I < Configs.size(); ++I) {
      if (Slots[I])
        recordRun(Out.Merged, Configs[I], *Slots[I]);
      if (Faults[I]) {
        ++Out.FaultedEntrants;
        recordFault(Out.Merged, Configs[I], *Faults[I]);
      }
    }
    if (ForeignEscapes != 0)
      Out.Merged.add("portfolio.worker_escapes",
                     static_cast<int64_t>(ForeignEscapes));

    Out.WinnerIndex = Winner;
    if (Winner != None) {
      Out.Result = std::move(*Slots[Winner]);
      Out.WinnerName = Configs[Winner].Name;
      Out.Merged.add("portfolio.winner_index", static_cast<int64_t>(Winner));
    } else {
      // Nobody was conclusive; prefer the first Unknown result (it carries
      // a counterexample lasso), then the first finished one, and only when
      // every entrant faulted or was cancelled unstarted, a bare Unknown.
      size_t Pick = None;
      for (size_t I = 0; I < Slots.size(); ++I)
        if (Slots[I] && Slots[I]->V == Verdict::Unknown) {
          Pick = I;
          break;
        }
      if (Pick == None)
        for (size_t I = 0; I < Slots.size(); ++I)
          if (Slots[I]) {
            Pick = I;
            break;
          }
      if (Pick != None) {
        Out.Result = std::move(*Slots[Pick]);
      } else {
        Out.Result.V = Verdict::Unknown;
        Out.WinnerName = "<all entrants faulted>";
      }
    }
    Out.Seconds = Watch.seconds();
    return Out;
  }
};

PortfolioRace::PortfolioRace(const Program &P,
                             std::vector<PortfolioConfig> Configs,
                             const PortfolioOptions &Opts)
    : St(std::make_shared<State>(P, std::move(Configs), Opts)) {}

void PortfolioRace::cancel() { St->Token.cancel(); }

void PortfolioRace::start(ThreadPool &Pool,
                          std::function<void(PortfolioRunResult)> Done) {
  if (St->Configs.empty()) {
    PortfolioRunResult Out;
    Out.Result.V = Verdict::Unknown;
    Out.WinnerName = "<empty portfolio>";
    Done(std::move(Out));
    return;
  }
  St->Done = std::move(Done);
  const size_t None = St->Configs.size();
  for (size_t I = 0; I < St->Configs.size(); ++I) {
    // Each task keeps the state alive; the handle may be dropped as soon
    // as start() returns.
    std::shared_ptr<State> S = St;
    Pool.submit([S, I, None] {
      Trace *Tracer = S->Opts.Tracer;
      // A queued entrant whose race is already decided (or whose job was
      // cancelled by a deadline or a draining server) never starts.
      if (!S->Token.cancelled()) {
        // Timeline slots are per-entrant: only this task writes slot I,
        // and the finalizer runs strictly after the last decrement, so
        // writing outside M is race-free.
        EntrantTimeline &TL = S->Entrants[I];
        TL.Started = true;
        TL.SpawnSeconds = S->Watch.seconds();
        if (Tracer)
          Tracer->emit(TraceEvent(TraceEventKind::EntrantSpawn)
                           .with("entrant", S->Configs[I].Name)
                           .with("index", static_cast<int64_t>(I)));
        // Quarantine boundary: a worker that throws retires its entrant
        // but must not take the race (or the pool thread) down with it.
        // errorOrOf folds everything derived from std::exception; a truly
        // foreign throw (throw 42;) is caught below so the race still
        // completes -- on a shared server pool nobody drains the pool's
        // failure channel per race.
        ErrorOr<AnalysisResult> R = [&]() -> ErrorOr<AnalysisResult> {
          try {
            Program Local = S->Prog;
            TerminationAnalyzer A(
                Local, effectiveOptions(S->Configs[I], S->Opts, &S->Token,
                                        S->Guard));
            return errorOrOf([&A] { return A.run(); });
          } catch (...) {
            std::lock_guard<std::mutex> Lock(S->M);
            ++S->ForeignEscapes;
            return ErrorOr<AnalysisResult>(EngineError(
                ErrorKind::InternalInvariant,
                "non-standard exception escaped a portfolio worker"));
          }
        }();
        TL.FinishSeconds = S->Watch.seconds();
        std::lock_guard<std::mutex> Lock(S->M);
        if (!R.ok()) {
          S->Faults[I] = R.error();
          TL.Faulted = true;
          TL.FaultKind = errorKindName(R.error().kind());
          if (Tracer)
            Tracer->emit(TraceEvent(TraceEventKind::EntrantFault)
                             .with("entrant", S->Configs[I].Name)
                             .with("kind", TL.FaultKind));
        } else {
          TL.V = R.value().V;
          if (Tracer)
            Tracer->emit(TraceEvent(TraceEventKind::EntrantResult)
                             .with("entrant", S->Configs[I].Name)
                             .with("verdict", verdictName(R.value().V)));
          if (isConclusive(R.value().V) && S->Winner == None) {
            S->Winner = I;
            TL.Won = true;
            S->Token.cancel();
            if (Tracer)
              Tracer->emit(TraceEvent(TraceEventKind::RaceDecided)
                               .with("winner", S->Configs[I].Name));
          }
          S->Slots[I] = std::move(R.value());
        }
      }
      // Completion mark: the last entrant (started or skipped) finalizes
      // and fires the callback outside the lock.
      bool Last;
      {
        std::lock_guard<std::mutex> Lock(S->M);
        Last = --S->Remaining == 0;
      }
      if (Last) {
        std::function<void(PortfolioRunResult)> Done = std::move(S->Done);
        Done(S->finalize());
      }
    });
  }
}
