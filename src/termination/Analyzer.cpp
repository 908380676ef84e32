//===- termination/Analyzer.cpp - The termination analysis loop ----------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "termination/Analyzer.h"

#include "automata/DbaComplement.h"
#include "automata/Difference.h"
#include "automata/FiniteTraceComplement.h"
#include "automata/ModularComplement.h"
#include "automata/Ops.h"
#include "automata/PerfCounters.h"
#include "automata/Simulation.h"

#include <cassert>
#include <algorithm>
#include <memory>

using namespace termcheck;

const char *termcheck::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Terminating:
    return "TERMINATING";
  case Verdict::Nonterminating:
    return "NONTERMINATING";
  case Verdict::Unknown:
    return "UNKNOWN";
  case Verdict::Timeout:
    return "TIMEOUT";
  case Verdict::Cancelled:
    return "CANCELLED";
  }
  return "?";
}

bool termcheck::verdictFromName(std::string_view Name, Verdict &V) {
  if (Name == "TERMINATING")
    V = Verdict::Terminating;
  else if (Name == "NONTERMINATING")
    V = Verdict::Nonterminating;
  else if (Name == "UNKNOWN")
    V = Verdict::Unknown;
  else if (Name == "TIMEOUT")
    V = Verdict::Timeout;
  else if (Name == "CANCELLED")
    V = Verdict::Cancelled;
  else
    return false;
  return true;
}

/// Stage numbering of the trace stream and the run report: 0 is the
/// implicit M_uv lasso module, 1-4 are the generalization stages of
/// Section 3.1 in increasing generality.
static int stageIndex(Stage S) {
  switch (S) {
  case Stage::Finite:
    return 1;
  case Stage::Deterministic:
    return 2;
  case Stage::Semideterministic:
    return 3;
  case Stage::Nondeterministic:
    return 4;
  }
  return 0;
}

static const char *lassoStatusName(LassoStatus S) {
  switch (S) {
  case LassoStatus::StemInfeasible:
    return "stem_infeasible";
  case LassoStatus::Terminating:
    return "terminating";
  case LassoStatus::Nonterminating:
    return "nonterminating";
  case LassoStatus::Unknown:
    return "unknown";
  }
  return "?";
}

static int moduleStageIndex(ModuleKind K) {
  switch (K) {
  case ModuleKind::Lasso:
    return 0;
  case ModuleKind::FiniteTrace:
    return 1;
  case ModuleKind::Deterministic:
    return 2;
  case ModuleKind::Semideterministic:
    return 3;
  case ModuleKind::Nondeterministic:
    return 4;
  }
  return 0;
}

Buchi termcheck::programToBuchi(const Program &P) {
  Buchi A(P.numSymbols() == 0 ? 1 : P.numSymbols(), 1);
  A.addStates(P.numLocations());
  for (State S = 0; S < P.numLocations(); ++S)
    A.setAccepting(S);
  for (const Program::Edge &E : P.edges())
    A.addTransition(E.From, E.Sym, E.To);
  if (P.numLocations() > 0)
    A.addInitial(P.entry());
  return A;
}

/// \returns true when subtract() has an efficient complement for the
/// module: finite-trace, deterministic, or semideterministic. Rank-based
/// complementation of general BAs is deliberately not on this list -- its
/// blowup is the very thing the multi-stage approach avoids -- so a module
/// failing this test is replaced by a weaker complementable one. Under the
/// Modular strategy a module also qualifies when its co-reach cut fits one
/// of those three constructions (DESIGN.md section 13).
static bool cheaplyComplementable(const CertifiedModule &M,
                                  const AnalyzerOptions &Opts) {
  if (M.Kind == ModuleKind::FiniteTrace && M.UniversalState)
    return true;
  Buchi C = completeWithSink(M.A);
  if (C.isDeterministic())
    return true;
  if (classifySdba(C).IsSemideterministic)
    return true;
  if (Opts.Complement == ComplementStrategy::Modular)
    return buildModularComplement(M.A, Opts.Ncsb) != nullptr;
  return false;
}

std::optional<CertifiedModule>
TerminationAnalyzer::generalize(const Lasso &L, const LassoWord &W,
                                const LassoProof &Proof, Statistics &Stats) {
  // The run's budget hook is polled before each stage, before each stage-3
  // rotation, before the saturated-lasso fallback, and inside the stage-2,
  // 3 and 4 constructions. Once it fires no further construction runs and
  // no module comes back: the hook is sticky, so the loop head turns its
  // cause into the TIMEOUT or CANCELLED verdict.
  ModuleBuilder Builder(P);
  Builder.ShouldAbort = BudgetHook;
  CertifiedModule M0 = Builder.buildLasso(L, Proof);
  assert(acceptsLasso(M0.A, W) && "stage 0 must contain the lasso word");

  if (!Opts.MultiStage) {
    CertifiedModule M = Builder.buildNondeterministic(M0);
    if (Builder.aborted())
      return std::nullopt;
    Stats.add("modules.nondeterministic");
    return M;
  }

  for (Stage S : Opts.Sequence) {
    if (BudgetHook())
      return std::nullopt;
    if (Trace *TR = Opts.Tracer)
      TR->emit(TraceEvent(TraceEventKind::StageAttempt)
                   .with("stage", stageIndex(S)));
    // A faulting stage is a failed generalization attempt, not a failed
    // run: record it and let the next (weaker) stage try. The returned
    // module is always one whose construction completed, so containment
    // never weakens a certificate -- only the choice of module.
    try {
      switch (S) {
      case Stage::Finite: {
        if (Proof.Status != LassoStatus::StemInfeasible)
          break;
        CertifiedModule M = Builder.buildFiniteTrace(L, Proof);
        if (acceptsLasso(M.A, W)) {
          Stats.add("modules.finite");
          return M;
        }
        break;
      }
      case Stage::Deterministic: {
        CertifiedModule M = Builder.buildDeterministic(M0);
        if (Builder.aborted())
          return std::nullopt;
        if (acceptsLasso(M.A, W)) {
          Stats.add("modules.deterministic");
          return M;
        }
        break;
      }
      case Stage::Semideterministic: {
        // u v^omega = (u v_1..v_k)(rotate_k v)^omega: the same word admits
        // |v| lasso alignments, and the subset construction is sensitive to
        // where the accepting head falls relative to the rank-decreasing
        // statement. Try rotations until one M_semi contains the word.
        LassoProver Prover(P);
        size_t MaxRot = std::min<size_t>(L.Loop.size(), 8);
        for (size_t Rot = 0; Rot < MaxRot; ++Rot) {
          if (BudgetHook())
            return std::nullopt;
          Lasso LR = L;
          if (Rot != 0) {
            LR.Stem = L.Stem.empty() ? L.Loop : L.Stem;
            LR.Stem.insert(LR.Stem.end(), L.Loop.begin(),
                           L.Loop.begin() + Rot);
            LR.Loop.assign(L.Loop.begin() + Rot, L.Loop.end());
            LR.Loop.insert(LR.Loop.end(), L.Loop.begin(),
                           L.Loop.begin() + Rot);
          }
          LassoProof PR = Rot == 0 ? Proof : Prover.prove(LR);
          if (PR.Status == LassoStatus::Unknown)
            continue;
          CertifiedModule MR = Builder.buildLasso(LR, PR);
          CertifiedModule M = Builder.buildSemideterministic(MR);
          if (Builder.aborted())
            return std::nullopt;
          if (acceptsLasso(M.A, W)) {
            Stats.add("modules.semideterministic");
            if (Rot != 0)
              Stats.add("modules.rotated");
            return M;
          }
        }
        break;
      }
      case Stage::Nondeterministic: {
        CertifiedModule M = Builder.buildNondeterministic(M0);
        if (Builder.aborted())
          return std::nullopt;
        if (acceptsLasso(M.A, W) && cheaplyComplementable(M, Opts)) {
          Stats.add("modules.nondeterministic");
          return M;
        }
        break;
      }
      }
    } catch (const EngineError &E) {
      Stats.add("fault.stage_skipped");
      Stats.add(std::string("fault.stage.") + errorKindName(E.kind()));
      if (Trace *TR = Opts.Tracer)
        TR->emit(TraceEvent(TraceEventKind::FaultContained)
                     .with("where", "stage")
                     .with("stage", stageIndex(S))
                     .with("kind", errorKindName(E.kind())));
    }
  }
  // Every stage was skipped or rejected: fall back to the stem-saturated
  // lasso module, which is semideterministic and contains the word by
  // construction; if even that is not cheaply complementable (merged loop
  // anomalies), use the bare lasso module.
  if (BudgetHook())
    return std::nullopt;
  try {
    CertifiedModule MSat = Builder.buildSaturatedLasso(M0);
    if (acceptsLasso(MSat.A, W) && cheaplyComplementable(MSat, Opts)) {
      Stats.add("modules.semideterministic");
      return MSat;
    }
  } catch (const EngineError &E) {
    Stats.add("fault.stage_skipped");
    Stats.add(std::string("fault.stage.") + errorKindName(E.kind()));
  }
  Stats.add("modules.lasso");
  return M0;
}

/// The difference options of every subtraction in one run: the module
/// subtractions and the word-only removals alike.
static DifferenceOptions differenceOptions(const AnalyzerOptions &Opts,
                                           const std::function<bool()> &Hook) {
  DifferenceOptions DiffOpts;
  DiffOpts.UseSubsumption = Opts.UseSubsumption;
  DiffOpts.ShouldAbort = Hook;
  DiffOpts.MaxProductStates = Opts.MaxProductStates;
  DiffOpts.Guard = Opts.Guard;
  return DiffOpts;
}

/// Subtracts exactly one ultimately periodic word: the deterministic
/// one-word automaton is trivially complementable, so this normally always
/// makes progress. Used when a module's complement blows the budget and
/// when a lasso is unproven in either direction (the unknown-skip hunt).
/// When even this construction is aborted (sticky budget, injected fault
/// pressure, or a guard at its limit), the caller has no way to make
/// progress on this lasso, which is exactly a ResourceExhausted engine
/// fault (contained by run()).
static Buchi subtractWordOnly(const Buchi &Remaining, const LassoWord &W,
                              const DifferenceOptions &DiffOpts,
                              Statistics &Stats) {
  Stats.add("complement.word_fallback");
  uint32_t Len = static_cast<uint32_t>(W.Stem.size() + W.Loop.size());
  Buchi WordAut(Remaining.numSymbols(), 1);
  WordAut.addStates(Len);
  for (State S = 0; S < Len; ++S)
    WordAut.setAccepting(S);
  WordAut.addInitial(0);
  for (uint32_t I = 0; I < Len; ++I) {
    Symbol Sym = I < W.Stem.size() ? W.Stem[I] : W.Loop[I - W.Stem.size()];
    State Next = I + 1 < Len ? I + 1 : static_cast<State>(W.Stem.size());
    WordAut.addTransition(I, Sym, Next);
  }
  Buchi CompleteWord = completeWithSink(WordAut);
  DbaComplementOracle WordOracle(CompleteWord);
  DifferenceResult R = difference(Remaining, WordOracle, DiffOpts);
  if (R.Aborted) {
    Stats.add("difference.aborted");
    throw EngineError(ErrorKind::ResourceExhausted,
                      "word-only subtraction aborted");
  }
  return std::move(R.D);
}

Buchi TerminationAnalyzer::subtract(const Buchi &Remaining,
                                    const CertifiedModule &M,
                                    Statistics &Stats) {
  DifferenceOptions DiffOpts = differenceOptions(Opts, BudgetHook);

  std::unique_ptr<ModularComplement> Modular; // outlives the oracle it feeds
  std::unique_ptr<ComplementOracle> Oracle;
  std::optional<Sdba> Prepared;
  std::optional<Buchi> Completed;

  const char *CompKind = "word_only";
  if (M.Kind == ModuleKind::FiniteTrace && M.UniversalState) {
    Stats.add("complement.finite");
    CompKind = "finite";
    Oracle = std::make_unique<FiniteTraceComplementOracle>(M.A,
                                                           *M.UniversalState);
  } else if (Opts.Complement == ComplementStrategy::Modular &&
             (Modular = buildModularComplement(M.A, Opts.Ncsb))) {
    // A failed build leaves Oracle null and falls through to the
    // monolithic chain below.
    Stats.add("complement.modular");
    CompKind = "modular";
    Oracle = std::move(Modular->Oracle);
  }
  if (!Oracle && !(M.Kind == ModuleKind::FiniteTrace && M.UniversalState)) {
    Completed = completeWithSink(M.A);
    if (Completed->isDeterministic()) {
      Stats.add("complement.dba");
      CompKind = "dba";
      Oracle = std::make_unique<DbaComplementOracle>(*Completed);
    } else if ((Prepared = prepareSdba(*Completed))) {
      Stats.add(Opts.Ncsb == NcsbVariant::Lazy ? "complement.ncsb_lazy"
                                               : "complement.ncsb_original");
      CompKind = Opts.Ncsb == NcsbVariant::Lazy ? "ncsb_lazy"
                                                : "ncsb_original";
      Oracle = std::make_unique<NcsbOracle>(*Prepared, Opts.Ncsb);
    }
  }

  auto TraceOutcome = [&](const char *Kind, const DifferenceResult *R,
                          bool WordFallback) {
    if (Trace *TR = Opts.Tracer)
      TR->emit(TraceEvent(TraceEventKind::Subtraction)
                   .with("complement", Kind)
                   .with("module_stage", moduleStageIndex(M.Kind))
                   .with("module_states", static_cast<int64_t>(M.A.numStates()))
                   .with("product_states",
                         R ? static_cast<int64_t>(R->ProductStatesExplored)
                           : int64_t(0))
                   .with("complement_states",
                         R ? static_cast<int64_t>(R->ComplementStatesDiscovered)
                           : int64_t(0))
                   .with("pruned",
                         R ? static_cast<int64_t>(R->SubsumptionPruned)
                           : int64_t(0))
                   .with("arcs_memoized",
                         R ? static_cast<int64_t>(R->ArcsMemoized)
                           : int64_t(0))
                   .with("aborted", R ? R->Aborted : false)
                   .with("word_fallback", WordFallback));
  };

  if (!Oracle) {
    auto W = findAcceptingLasso(M.A);
    assert(W && "module language cannot be empty here");
    TraceOutcome("word_only", nullptr, true);
    return subtractWordOnly(Remaining, *W, DiffOpts, Stats);
  }

  DifferenceResult R = difference(Remaining, *Oracle, DiffOpts);
  if (R.Aborted) {
    Stats.add("difference.aborted");
    if (R.HitStateCap) {
      // The construction was too big (MaxProductStates or guard headroom),
      // not out of time: degrade to removing just the certified witness
      // word, which keeps the refinement loop progressing.
      Stats.add("difference.state_capped");
      auto W = findAcceptingLasso(M.A);
      assert(W && "module language cannot be empty here");
      TraceOutcome(CompKind, &R, true);
      return subtractWordOnly(Remaining, *W, DiffOpts, Stats);
    }
    // The hook only fires on a tripped deadline, external cancellation, or
    // an exhausted guard, and all are sticky, so the outer loop is about
    // to stop: hand Remaining back unchanged instead of burning seconds on
    // a word-removal nobody will look at.
    TraceOutcome(CompKind, &R, false);
    return Remaining;
  }
  Stats.add("difference.product_states",
            static_cast<int64_t>(R.ProductStatesExplored));
  Stats.add("difference.complement_states",
            static_cast<int64_t>(R.ComplementStatesDiscovered));
  Stats.add("difference.subsumption_pruned",
            static_cast<int64_t>(R.SubsumptionPruned));
  Stats.add("difference.arcs_memoized",
            static_cast<int64_t>(R.ArcsMemoized));
  TraceOutcome(CompKind, &R, false);
  return std::move(R.D);
}

AnalysisResult TerminationAnalyzer::run() {
  Timer Watch;
  // Snapshot the thread-local hot-path counters: the structures that bump
  // them (CSR indexes, intern tables) live and die deep inside the loop,
  // so a delta around the whole run is the only attributable total. One
  // run executes on exactly one thread, so the delta is deterministic.
  const perf::Counters PerfStart = perf::local();
  TraceSpan RunSpan(Opts.Tracer, "analyzer.run");
  Deadline Budget = Opts.TimeoutSeconds > 0
                        ? Deadline::after(Opts.TimeoutSeconds)
                        : Deadline();
  // One hook serves every polling point (refinement loop, difference DFS,
  // NCSB split enumeration): deadline OR external cancellation OR an
  // exhausted resource guard. All are folded into a single callable so the
  // inner engines stay agnostic of why they are being stopped.
  const CancellationToken *Cancel = Opts.Cancel;
  ResourceGuard *Guard = Opts.Guard;
  BudgetHook = [&Budget, Cancel, Guard]() {
    return Budget.expired() || (Cancel && Cancel->cancelled()) ||
           (Guard && Guard->exhausted());
  };
  AnalysisResult Result;

  Buchi Remaining = programToBuchi(P);
  LassoProver Prover(P);
  RecurrenceOptions NontermOpts = Opts.Nonterm;
  NontermOpts.Tracer = Opts.Tracer;
  RecurrenceProver NontermProver(P, NontermOpts);
  uint64_t Iter = 0;
  // The unknown-skip hunt: lassos unproven in both directions are
  // subtracted word-by-word so a later lasso can still yield a
  // nontermination proof; the first such word is kept as the Unknown
  // counterexample, and Terminating becomes unreachable.
  uint32_t SkippedUnknown = 0;
  std::optional<LassoWord> FirstUnknown;
  // Fault containment: each recoverable EngineError (ArithmeticOverflow,
  // ResourceExhausted, InternalInvariant) weakens exactly one decision (a
  // lasso treated as unproven, a subtraction degraded to the word-only
  // form) and is counted; past MaxContainedFaults the run stops pretending
  // and reports UNKNOWN. The counter is what bounds livelock when the same
  // fault re-fires every iteration.
  constexpr uint32_t MaxContainedFaults = 8;
  uint32_t ContainedFaults = 0;
  auto Contain = [&](const EngineError &E) {
    Result.Stats.add(std::string("fault.contained.") +
                     errorKindName(E.kind()));
    if (Trace *TR = Opts.Tracer)
      TR->emit(TraceEvent(TraceEventKind::FaultContained)
                   .with("where", "run")
                   .with("kind", errorKindName(E.kind()))
                   .with("count", static_cast<int64_t>(ContainedFaults + 1)));
    return ++ContainedFaults > MaxContainedFaults;
  };
  // The per-stage wall-clock timers of the run report: one accumulating
  // timer per pipeline stage, recorded through the same Statistics bag as
  // the counters (and so excluded from the portfolio's deterministic
  // merged dump -- see Statistics::mergePrefixed).
  auto Timed = [&Result](const char *Name, auto &&Fn) {
    Timer T;
    // The timer must be charged even when the stage throws: the fault
    // containment paths re-enter the loop and the spent time would
    // otherwise vanish from the report.
    struct Charge {
      Statistics &S;
      const char *Name;
      Timer &T;
      ~Charge() { S.addTime(Name, T.seconds()); }
    } C{Result.Stats, Name, T};
    return Fn();
  };
  while (true) {
    if (Cancel && Cancel->cancelled()) {
      Result.V = Verdict::Cancelled;
      break;
    }
    if (Guard && Guard->exhausted()) {
      // Resource budgets degrade like wall-clock budgets: the run ends
      // inconclusively instead of the process OOMing.
      Result.Stats.add("resource.exhausted");
      Result.V = Verdict::Timeout;
      break;
    }
    if (Budget.expired() ||
        (Opts.MaxIterations != 0 && Iter >= Opts.MaxIterations)) {
      Result.V = Verdict::Timeout;
      break;
    }
    ++Iter;
    Result.Stats.add("iterations");

    std::optional<LassoWord> W = Timed(
        "time.sample", [&] { return findAcceptingLasso(Remaining); });
    if (Trace *TR = Opts.Tracer) {
      TraceEvent E(TraceEventKind::LassoSampled);
      E.with("iteration", static_cast<int64_t>(Iter));
      E.with("remaining_states", static_cast<int64_t>(Remaining.numStates()));
      E.with("found", W.has_value());
      if (W) {
        E.with("stem_len", static_cast<int64_t>(W->Stem.size()));
        E.with("loop_len", static_cast<int64_t>(W->Loop.size()));
      }
      TR->emit(std::move(E));
    }
    if (!W) {
      if (FirstUnknown) {
        // Every remaining word was covered, but skipped executions are
        // unaccounted for: the termination conclusion is forfeit.
        Result.V = Verdict::Unknown;
        Result.Counterexample = FirstUnknown;
      } else {
        Result.V = Verdict::Terminating;
      }
      break;
    }
    Lasso L{W->Stem, W->Loop};
    LassoProof Proof;
    try {
      Proof = Timed("time.prove", [&] { return Prover.prove(L); });
    } catch (const EngineError &E) {
      // Synthesis faulted (overflowing Farkas system, injected fault):
      // the lasso is treated as unproven, which can only push the verdict
      // toward Unknown -- never flip it.
      if (Contain(E)) {
        Result.V = Verdict::Unknown;
        Result.Counterexample = *W;
        break;
      }
      Proof = LassoProof();
      Proof.Status = LassoStatus::Unknown;
    }
    if (Trace *TR = Opts.Tracer)
      TR->emit(TraceEvent(TraceEventKind::LassoProved)
                   .with("iteration", static_cast<int64_t>(Iter))
                   .with("status", lassoStatusName(Proof.Status)));
    if (Proof.Status == LassoStatus::Unknown) {
      if (Proof.FixpointCandidate)
        Result.Stats.add("nonterm.fixpoint_hints");
      if (Opts.ProveNontermination) {
        std::optional<NontermCertificate> Cert;
        try {
          Cert = Timed("time.nonterm", [&] {
            return NontermProver.prove(L.Stem, L.Loop, Result.Stats);
          });
        } catch (const EngineError &E) {
          // A faulted nontermination attempt yields no certificate; a
          // NONTERMINATING verdict still requires a validated one.
          if (Contain(E)) {
            Result.V = Verdict::Unknown;
            Result.Counterexample = *W;
            break;
          }
          Cert = std::nullopt;
        }
        if (Cert) {
          Proof.Status = LassoStatus::Nonterminating;
          Result.V = Verdict::Nonterminating;
          Result.Nonterm = std::move(*Cert);
          Result.Counterexample = *W;
          break;
        }
      }
      if (!FirstUnknown)
        FirstUnknown = *W;
      if (SkippedUnknown < Opts.UnknownLassoBudget) {
        ++SkippedUnknown;
        Result.Stats.add("unknown_lassos_skipped");
        try {
          Remaining = subtractWordOnly(
              Remaining, *W, differenceOptions(Opts, BudgetHook),
              Result.Stats);
        } catch (const EngineError &E) {
          if (Contain(E)) {
            Result.V = Verdict::Unknown;
            Result.Counterexample = *W;
            break;
          }
          // No progress on this word; the loop head re-checks the sticky
          // budgets, and the fault counter bounds repeated failures.
        }
        continue;
      }
      Result.V = Verdict::Unknown;
      Result.Counterexample = *W;
      break;
    }

    try {
      std::optional<CertifiedModule> M = Timed(
          "time.generalize", [&] { return generalize(L, *W, Proof,
                                                     Result.Stats); });
      Result.Stats.add("perf.generalize_calls");
      if (!M)
        continue; // the budget hook fired; the loop head ends the run
      if (Trace *TR = Opts.Tracer)
        TR->emit(TraceEvent(TraceEventKind::ModuleBuilt)
                     .with("iteration", static_cast<int64_t>(Iter))
                     .with("stage", moduleStageIndex(M->Kind))
                     .with("kind", moduleKindName(M->Kind))
                     .with("states", static_cast<int64_t>(M->A.numStates())));
      Remaining = Timed(
          "time.subtract", [&] { return subtract(Remaining, *M,
                                                 Result.Stats); });
      Result.Modules.push_back(std::move(*M));
    } catch (const EngineError &E) {
      if (Contain(E)) {
        Result.V = Verdict::Unknown;
        Result.Counterexample = FirstUnknown ? FirstUnknown : W;
        break;
      }
      // The lasso itself is proven terminating, so removing exactly its
      // word is sound and keeps TERMINATING reachable; only convergence
      // speed is lost.
      try {
        Remaining = subtractWordOnly(
            Remaining, *W, differenceOptions(Opts, BudgetHook), Result.Stats);
      } catch (const EngineError &E2) {
        if (Contain(E2)) {
          Result.V = Verdict::Unknown;
          Result.Counterexample = FirstUnknown ? FirstUnknown : W;
          break;
        }
        continue; // no progress; sticky budgets or the counter end the run
      }
    }
    Remaining = dropFullConditions(Remaining);
    if (Remaining.numConditions() > 48)
      Remaining = degeneralize(Remaining);
    // The quotient's cost is quadratic in the remaining automaton, so it
    // only runs below this size.
    constexpr uint32_t ReduceStateCap = 600;
    if (Opts.ReduceRemaining && Remaining.numStates() <= ReduceStateCap) {
      uint32_t Before = Remaining.numStates();
      Remaining = Timed("time.reduce", [&] {
        return quotientByDirectSimulation(Remaining, BudgetHook);
      });
      Result.Stats.add("reduce.states_saved",
                       static_cast<int64_t>(Before - Remaining.numStates()));
    }
    Result.Stats.recordMax("remaining.max_states",
                           static_cast<int64_t>(Remaining.numStates()));
  }

  const perf::Counters &PerfEnd = perf::local();
  Result.Stats.add("perf.csr_rebuilds",
                   static_cast<int64_t>(PerfEnd.CsrRebuilds -
                                        PerfStart.CsrRebuilds));
  Result.Stats.add("perf.intern_hits",
                   static_cast<int64_t>(PerfEnd.InternHits -
                                        PerfStart.InternHits));
  Result.Stats.add("perf.intern_misses",
                   static_cast<int64_t>(PerfEnd.InternMisses -
                                        PerfStart.InternMisses));
  Result.Stats.add("perf.arcs_memoized",
                   static_cast<int64_t>(PerfEnd.ArcsMemoized -
                                        PerfStart.ArcsMemoized));
  Result.Seconds = Watch.seconds();
  if (Trace *TR = Opts.Tracer)
    TR->emit(TraceEvent(TraceEventKind::VerdictReached)
                 .with("verdict", verdictName(Result.V))
                 .with("iterations", static_cast<int64_t>(Iter))
                 .with("modules", static_cast<int64_t>(Result.Modules.size()))
                 .with("contained_faults",
                       static_cast<int64_t>(ContainedFaults))
                 .with("seconds", Result.Seconds));
  return Result;
}
