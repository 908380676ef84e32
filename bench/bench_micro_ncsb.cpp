//===- bench/bench_micro_ncsb.cpp - Microbenchmark ablations --------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Google-benchmark microbenchmarks for the operations the paper's design
/// decisions target: NCSB complement materialization (eager vs lazy
/// guessing), the antichain inside the difference engine, the
/// Fourier-Motzkin entailment backing the Hoare queries, and the Farkas
/// simplex behind ranking synthesis. These are ablation-style measurements
/// of the enabling technology rather than a paper figure.
///
//===----------------------------------------------------------------------===//

#include "automata/Difference.h"
#include "automata/Ncsb.h"
#include "automata/Simulation.h"
#include "benchgen/RandomAutomata.h"
#include "logic/Simplex.h"
#include "program/Parser.h"
#include "termination/Analyzer.h"

#include <benchmark/benchmark.h>

using namespace termcheck;

namespace {

Sdba corpusSdba(uint32_t Size) {
  Rng R(42 + Size);
  Buchi A = randomSdba(R, Size / 2 + 1, Size, 2);
  auto S = prepareSdba(A);
  assert(S && "generator must yield SDBAs");
  return *S;
}

void BM_NcsbOriginalMaterialize(benchmark::State &St) {
  Sdba In = corpusSdba(static_cast<uint32_t>(St.range(0)));
  for (auto _ : St) {
    NcsbOracle O(In, NcsbVariant::Original);
    benchmark::DoNotOptimize(O.materialize().numStates());
  }
}
BENCHMARK(BM_NcsbOriginalMaterialize)->Arg(4)->Arg(6)->Arg(8);

void BM_NcsbLazyMaterialize(benchmark::State &St) {
  Sdba In = corpusSdba(static_cast<uint32_t>(St.range(0)));
  for (auto _ : St) {
    NcsbOracle O(In, NcsbVariant::Lazy);
    benchmark::DoNotOptimize(O.materialize().numStates());
  }
}
BENCHMARK(BM_NcsbLazyMaterialize)->Arg(4)->Arg(6)->Arg(8);

/// corpusSdba(8) with its states scattered over 150 ids: the complement is
/// the same up to renaming, but every NCSB bitset spans three 64-bit words.
Sdba multiWordSdba() {
  Rng R(150);
  auto S = prepareSdba(scatterStates(R, corpusSdba(8).A, 150));
  assert(S && S->A.numStates() > 128 && "expected three-word bitsets");
  return *S;
}

void BM_NcsbMaterializeMultiWord(benchmark::State &St) {
  Sdba In = multiWordSdba();
  NcsbVariant V = St.range(0) == 0 ? NcsbVariant::Original : NcsbVariant::Lazy;
  for (auto _ : St) {
    NcsbOracle O(In, V);
    benchmark::DoNotOptimize(O.materialize().numStates());
  }
}
// Arg 0 = NCSB-Original, 1 = NCSB-Lazy.
BENCHMARK(BM_NcsbMaterializeMultiWord)->Arg(0)->Arg(1);

Buchi universal(uint32_t NumSymbols) {
  Buchi U(NumSymbols, 1);
  State S = U.addState();
  U.addInitial(S);
  U.setAccepting(S);
  for (Symbol Sym = 0; Sym < NumSymbols; ++Sym)
    U.addTransition(S, Sym, S);
  return U;
}

void BM_DifferenceExactEmp(benchmark::State &St) {
  Sdba In = corpusSdba(6);
  Buchi U = universal(In.A.numSymbols());
  DifferenceOptions Opts;
  Opts.UseSubsumption = false;
  for (auto _ : St) {
    NcsbOracle O(In, NcsbVariant::Lazy);
    benchmark::DoNotOptimize(difference(U, O, Opts).ProductStatesExplored);
  }
}
BENCHMARK(BM_DifferenceExactEmp);

void BM_DifferenceAntichain(benchmark::State &St) {
  Sdba In = corpusSdba(6);
  Buchi U = universal(In.A.numSymbols());
  DifferenceOptions Opts;
  Opts.UseSubsumption = true;
  for (auto _ : St) {
    NcsbOracle O(In, NcsbVariant::Lazy);
    benchmark::DoNotOptimize(difference(U, O, Opts).ProductStatesExplored);
  }
}
BENCHMARK(BM_DifferenceAntichain);

void BM_FourierMotzkinEntailment(benchmark::State &St) {
  VarTable Vars;
  VarId I = Vars.intern("i"), J = Vars.intern("j"), K = Vars.intern("k");
  Cube P;
  P.add(Constraint::ge(LinearExpr::variable(I), LinearExpr::constant(1)));
  P.add(Constraint::le(LinearExpr::variable(J), LinearExpr::variable(I)));
  P.add(Constraint::eq(LinearExpr::variable(K),
                       LinearExpr::variable(I) - LinearExpr::variable(J)));
  Constraint C = Constraint::ge(LinearExpr::variable(K),
                                LinearExpr::constant(0));
  for (auto _ : St)
    benchmark::DoNotOptimize(fm::entails(P, C));
}
BENCHMARK(BM_FourierMotzkinEntailment);

void BM_FarkasRankingSynthesis(benchmark::State &St) {
  ParseResult R = parseProgram(
      "program p(i, j) { while (j < i) { j := j + 1; } }");
  assert(R.ok());
  Program &Prog = *R.Prog;
  // The inner Psort lasso: loop guard (edge 0) + increment (edge 2; edge 1
  // is the negated guard leaving the loop).
  Lasso L;
  L.Loop = {Prog.edges()[0].Sym, Prog.edges()[2].Sym};
  for (auto _ : St) {
    LassoProver Prover(Prog);
    benchmark::DoNotOptimize(Prover.prove(L).Status);
  }
}
BENCHMARK(BM_FarkasRankingSynthesis);

void BM_FullAnalysisPsort(benchmark::State &St) {
  const char *Src = R"(
program sort(i) {
  while (i > 0) {
    j := 1;
    while (j < i) { j := j + 1; }
    i := i - 1;
  }
})";
  for (auto _ : St) {
    ParseResult R = parseProgram(Src);
    TerminationAnalyzer A(*R.Prog, {});
    benchmark::DoNotOptimize(A.run().V);
  }
}
BENCHMARK(BM_FullAnalysisPsort);


void BM_EmptinessGaiserSchwoon(benchmark::State &St) {
  Rng R(5);
  RandomAutomatonSpec Spec;
  Spec.NumStates = 200;
  Spec.NumSymbols = 2;
  Spec.AcceptPercent = 10;
  Buchi A = randomBa(R, Spec);
  for (auto _ : St)
    benchmark::DoNotOptimize(isEmpty(A));
}
BENCHMARK(BM_EmptinessGaiserSchwoon);

void BM_DirectSimulationQuotient(benchmark::State &St) {
  Rng R(6);
  RandomAutomatonSpec Spec;
  Spec.NumStates = 60;
  Spec.NumSymbols = 2;
  Buchi A = randomBa(R, Spec);
  for (auto _ : St)
    benchmark::DoNotOptimize(quotientByDirectSimulation(A).numStates());
}
BENCHMARK(BM_DirectSimulationQuotient);

} // namespace

BENCHMARK_MAIN();
