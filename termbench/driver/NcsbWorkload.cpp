//===- driver/NcsbWorkload.cpp - The `ncsb` workload ----------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The Figure 4 experiment on one thread: every SDBA of the corpus is
/// complemented by NCSB-Original and NCSB-Lazy materialization and by a
/// Lazy+subsumption difference against the universal automaton. The
/// corpus -- SDBAs harvested from analysis runs over the small suite plus
/// seeded random SDBAs -- is built during set-up (README.md, "ncsb").
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "automata/Difference.h"
#include "automata/Ncsb.h"
#include "benchgen/RandomAutomata.h"
#include "benchgen/SdbaHarvest.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <optional>

using namespace termbench;
using namespace termcheck;

namespace {

constexpr int SetupRepeats = 3;
/// Per-program budget of the harvesting analysis runs.
constexpr double HarvestBudgetS = 1.0;
/// The live-state cap (product plus complement states) of the size probe:
/// it stops exploring past the largest size class below.
constexpr size_t ProbeStateCap = 1 << 12;
/// How many random SDBAs the corpus takes per size class, where class K
/// holds the SDBAs whose NCSB-Original complement has 2^K to 2^(K+1) - 1
/// states times letters: about 80% of what six passes over the shape grid
/// below draw. Every seed fills the same quotas, so seeds differ in their
/// automata but not in their sizes.
constexpr size_t Quota[] = {0,  28, 16, 24, 62, 54,
                            44, 44, 48, 52, 52, 68};
constexpr size_t Classes = sizeof(Quota) / sizeof(Quota[0]);
/// Draws after which an unfilled quota is a set-up error.
constexpr size_t MaxDraws = 100000;

struct Entry {
  std::string Name;
  Buchi A;
};

/// Universal automaton over \p NumSymbols letters (accepts Sigma^omega).
Buchi universal(uint32_t NumSymbols) {
  Buchi U(NumSymbols, 1);
  State S = U.addState();
  U.addInitial(S);
  U.setAccepting(S);
  for (Symbol Sym = 0; Sym < NumSymbols; ++Sym)
    U.addTransition(S, Sym, S);
  return U;
}

std::vector<Entry> makeCorpus(uint64_t Seed) {
  std::vector<Entry> Corpus;
  std::vector<Buchi> Harvested =
      harvestSdbas(smallBenchmarkSuite(), HarvestBudgetS);
  for (size_t I = 0; I < Harvested.size(); ++I)
    Corpus.push_back({"harvest_" + std::to_string(I), Harvested[I]});

  Rng R(Seed);
  size_t Filled[Classes] = {}, Missing = 0, Draws = 0;
  for (size_t Q : Quota)
    Missing += Q;
  // Cycle through the shape grid, keeping each draw whose size class still
  // has room.
  while (Missing > 0)
    for (uint32_t Q1 = 1; Q1 <= 6; ++Q1)
      for (uint32_t Q2 = 3; Q2 <= 9; ++Q2)
        for (uint32_t Sym = 2; Sym <= 4 && Missing > 0; ++Sym) {
          if (++Draws > MaxDraws) {
            std::fprintf(stderr, "termbench: ncsb quotas unfilled\n");
            std::exit(2);
          }
          Buchi A = randomSdba(R, Q1, Q2, Sym);
          std::optional<Sdba> In = prepareSdba(A);
          if (!In)
            continue;
          Buchi U = universal(Sym);
          NcsbOracle Original(*In, NcsbVariant::Original);
          DifferenceOptions Cap;
          Cap.UseSubsumption = false;
          Cap.MaxProductStates = ProbeStateCap;
          if (difference(U, Original, Cap).Aborted)
            continue;
          size_t Class =
              std::bit_width(Original.numStatesDiscovered() * Sym) - 1;
          if (Class >= Classes || Filled[Class] == Quota[Class])
            continue;
          ++Filled[Class];
          --Missing;
          Corpus.push_back(
              {"random_" + std::to_string(Corpus.size()), std::move(A)});
        }
  return Corpus;
}

/// The exact work of one SDBA; every repetition must reproduce it.
struct Counts {
  size_t Original = 0, Lazy = 0, LazyTransitions = 0, Subsumption = 0,
         Pruned = 0;
  bool operator==(const Counts &) const = default;
};

struct Times {
  double Prepare = 0, Original = 0, Lazy = 0, Difference = 0;
};

} // namespace

Outcome termbench::runNcsb(const Options &O) {
  Outcome Out;
  std::vector<Entry> Corpus;
  std::vector<double> SetupS;
  // Set-up runs once before the first round and again after a third and
  // two thirds of the run, so its median samples the whole run; every
  // repetition must build the same corpus from the seed.
  auto SetUp = [&] {
    Timer Setup;
    std::vector<Entry> Built = makeCorpus(O.Seed);
    SetupS.push_back(Setup.seconds());
    if (Corpus.empty())
      Corpus = std::move(Built);
    else if (!std::equal(Corpus.begin(), Corpus.end(), Built.begin(),
                         Built.end(), [](const Entry &A, const Entry &B) {
                           return A.A.numStates() == B.A.numStates() &&
                                  A.A.numTransitions() == B.A.numTransitions();
                         }))
      Out.fail("set-up built a different corpus from the same seed");
  };
  SetUp();

  std::vector<std::optional<Counts>> First(Corpus.size());
  std::vector<std::vector<double>> Latencies(Corpus.size());
  std::vector<double> Untraced, Traced;
  SpanRecorder Rec;
  Times TracedTimes;
  double TracedWall = 0;
  Timer Measure;
  int64_t TaskId = 0;
  for (bool TraceRound = false;; TraceRound = O.Traced && !TraceRound) {
    // Wall sums the per-SDBA times, leaving out the one-off cross-checks.
    double Wall = 0;
    Timer Round;
    for (size_t I = 0; I < Corpus.size(); ++I) {
      SpanRecorder *R = TraceRound ? &Rec : nullptr;
      int64_t Id = TaskId++;
      int64_t Root = R ? R->begin("bench.task", -1, Id) : -1;
      // Times one public call, and records a span around it when traced.
      auto Call = [&](const char *Span, double &Acc, auto &&Fn) {
        int64_t S = R ? R->begin(Span, Root, Id) : -1;
        Timer T;
        auto Result = Fn();
        double Sec = T.seconds();
        if (R) {
          R->end(S);
          Acc += Sec;
        }
        return Result;
      };
      ++Out.Attempted;
      Timer Latency;
      std::optional<Sdba> In = Call("automata.prepare_sdba",
                                    TracedTimes.Prepare,
                                    [&] { return prepareSdba(Corpus[I].A); });
      if (!In) {
        Out.fail(Corpus[I].Name + ": not semideterministic");
        if (R)
          R->end(Root);
        continue;
      }
      Buchi Original = Call("automata.ncsb_original", TracedTimes.Original,
                            [&] {
                              NcsbOracle Or(*In, NcsbVariant::Original);
                              return Or.materialize();
                            });
      Buchi Lazy = Call("automata.ncsb_lazy", TracedTimes.Lazy, [&] {
        NcsbOracle Or(*In, NcsbVariant::Lazy);
        return Or.materialize();
      });
      DifferenceResult Diff =
          Call("automata.difference", TracedTimes.Difference, [&] {
            Buchi U = universal(In->A.numSymbols());
            NcsbOracle Or(*In, NcsbVariant::Lazy);
            DifferenceOptions Opts;
            Opts.UseSubsumption = true;
            return difference(U, Or, Opts);
          });
      double Sec = Latency.seconds();
      if (R)
        R->end(Root);
      Wall += Sec;
      Latencies[I].push_back(Sec);

      Counts C{Original.numStates(), Lazy.numStates(), Lazy.numTransitions(),
               Diff.ProductStatesExplored, Diff.SubsumptionPruned};
      if (First[I]) {
        if (!(*First[I] == C))
          Out.fail(Corpus[I].Name + ": work counts differ between "
                                    "repetitions");
        continue;
      }
      First[I] = C;
      // Cross-checks, once per SDBA: Proposition 5.2, and a lasso of the
      // SDBA is in neither complement nor in the difference.
      const std::string &Name = Corpus[I].Name;
      if (Diff.Aborted)
        Out.fail(Name + ": difference aborted");
      else if (C.Lazy > C.Original)
        Out.fail(Name + ": NCSB-Lazy has more states than NCSB-Original");
      else if (std::optional<LassoWord> W = findAcceptingLasso(In->A)) {
        if (acceptsLasso(Original, *W))
          Out.fail(Name + ": NCSB-Original accepts a word of the SDBA");
        else if (acceptsLasso(Lazy, *W))
          Out.fail(Name + ": NCSB-Lazy accepts a word of the SDBA");
        else if (acceptsLasso(Diff.D, *W))
          Out.fail(Name + ": the difference keeps a word of the SDBA");
      }
    }
    (TraceRound ? Traced : Untraced).push_back(Wall);
    if (TraceRound)
      TracedWall += Round.seconds();
    bool Enough = !O.Traced || !Traced.empty();
    if (Enough && Measure.seconds() + Wall > O.Seconds)
      break;
    if (static_cast<int>(SetupS.size()) < SetupRepeats &&
        Measure.seconds() >
            O.Seconds * static_cast<double>(SetupS.size()) / SetupRepeats)
      SetUp();
  }
  while (static_cast<int>(SetupS.size()) < SetupRepeats)
    SetUp();

  Counts Total;
  for (const std::optional<Counts> &C : First)
    if (C) {
      Total.Original += C->Original;
      Total.Lazy += C->Lazy;
      Total.LazyTransitions += C->LazyTransitions;
      Total.Subsumption += C->Subsumption;
      Total.Pruned += C->Pruned;
    }
  std::printf("ncsb: %zu SDBAs, %zu untraced and %zu traced rounds; work "
              "counts: original %zu, lazy %zu states (%zu transitions), "
              "lazy+subsumption %zu states, %zu pruned\n",
              Corpus.size(), Untraced.size(), Traced.size(), Total.Original,
              Total.Lazy, Total.LazyTransitions, Total.Subsumption,
              Total.Pruned);

  if (!O.Traced) {
    // Each SDBA's time is its fastest repetition: other tenants of the
    // machine only ever add time.
    std::vector<double> PerSdba;
    double Wall = 0;
    for (const std::vector<double> &L : Latencies)
      if (!L.empty()) {
        PerSdba.push_back(*std::min_element(L.begin(), L.end()));
        Wall += PerSdba.back();
      }
    Tail T = tailOf(PerSdba, Corpus.size() - PerSdba.size());
    Out.metric("setup_s", median(SetupS), "s");
    Out.metric("wall_s", Wall, "s");
    Out.metric("jobs_per_s", static_cast<double>(PerSdba.size()) / Wall,
               "jobs/s");
    Out.metric("latency_p50_s", median(PerSdba), "s");
    Out.metric("latency_tail_s", T.Value, "s");
    Out.metric("decided_share",
               static_cast<double>(Out.Attempted - Out.Failed) /
                   static_cast<double>(Out.Attempted),
               "1");
    Out.metric("peak_rss_mb", peakRssMb(), "MB");
    std::printf("ncsb: latency_tail_s is p%g of %zu samples, %zu beyond it\n",
                T.Percentile, T.Samples, T.Beyond);
    return Out;
  }

  double Rounds = static_cast<double>(Traced.size());
  Out.metric("automata.prepare_sdba_s", TracedTimes.Prepare / Rounds, "s");
  Out.metric("automata.ncsb_original_s", TracedTimes.Original / Rounds, "s");
  Out.metric("automata.ncsb_lazy_s", TracedTimes.Lazy / Rounds, "s");
  Out.metric("automata.difference_s", TracedTimes.Difference / Rounds, "s");
  Out.metric("automata.ncsb_original_states",
             static_cast<double>(Total.Original), "count");
  Out.metric("automata.ncsb_lazy_states", static_cast<double>(Total.Lazy),
             "count");
  Out.metric("automata.ncsb_lazy_transitions",
             static_cast<double>(Total.LazyTransitions), "count");
  Out.metric("automata.subsumption_states",
             static_cast<double>(Total.Subsumption), "count");
  double Candidates = static_cast<double>(Total.Subsumption + Total.Pruned);
  Out.metric("automata.subsumption_prune_ratio",
             Candidates > 0 ? static_cast<double>(Total.Pruned) / Candidates
                            : 0,
             "1");
  Out.metric("trace.overhead_s", median(Traced) - median(Untraced), "s");

  printLayerTable("ncsb", Rec.spans(), TracedWall,
                  "traced wall of " + std::to_string(Traced.size()) +
                      " round(s) over the corpus");
  std::printf("ncsb: tracing overhead %.6f s per round (traced %.6f s, "
              "untraced %.6f s)\n",
              median(Traced) - median(Untraced), median(Traced),
              median(Untraced));
  printPredictions();
  if (!O.SpansPath.empty() && !Rec.write(O.SpansPath))
    std::fprintf(stderr, "termbench: cannot write %s\n", O.SpansPath.c_str());
  return Out;
}
