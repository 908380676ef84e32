//===- benchgen/RandomAutomata.cpp - Seeded automaton corpora ------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "benchgen/RandomAutomata.h"

#include <cassert>

using namespace termcheck;

Buchi termcheck::randomBa(Rng &R, const RandomAutomatonSpec &Spec) {
  assert(Spec.NumStates > 0 && Spec.NumSymbols > 0 && "empty spec");
  Buchi A(Spec.NumSymbols, 1);
  A.addStates(Spec.NumStates);
  for (State S = 0; S < Spec.NumStates; ++S) {
    if (R.chance(Spec.AcceptPercent, 100))
      A.setAccepting(S);
    for (Symbol Sym = 0; Sym < Spec.NumSymbols; ++Sym) {
      // At least one successor (completeness), possibly more per density.
      A.addTransition(S, Sym, static_cast<State>(R.below(Spec.NumStates)));
      double Extra = Spec.Density - 1.0;
      while (Extra > 0 && R.chance(static_cast<uint64_t>(Extra * 100) + 1, 100)) {
        A.addTransition(S, Sym, static_cast<State>(R.below(Spec.NumStates)));
        Extra -= 1.0;
      }
    }
  }
  A.addInitial(0);
  return A;
}

Buchi termcheck::randomSdba(Rng &R, uint32_t NumQ1, uint32_t NumQ2,
                            uint32_t NumSymbols, double Density,
                            uint32_t AcceptPercent) {
  assert(NumQ2 > 0 && NumSymbols > 0 && "Q2 must be nonempty");
  Buchi A(NumSymbols, 1);
  A.addStates(NumQ1 + NumQ2);
  auto Q2State = [&](uint64_t I) { return static_cast<State>(NumQ1 + I); };

  // Q1: nondeterministic transitions into Q1 or Q2.
  for (State S = 0; S < NumQ1; ++S) {
    for (Symbol Sym = 0; Sym < NumSymbols; ++Sym) {
      uint32_t Count = 1;
      double Extra = Density - 1.0;
      while (Extra > 0 &&
             R.chance(static_cast<uint64_t>(Extra * 100) + 1, 100)) {
        ++Count;
        Extra -= 1.0;
      }
      for (uint32_t I = 0; I < Count; ++I) {
        if (R.chance(30, 100))
          A.addTransition(S, Sym, Q2State(R.below(NumQ2)));
        else
          A.addTransition(S, Sym, static_cast<State>(R.below(NumQ1)));
      }
    }
  }
  // Q2: deterministic, closed, holds the accepting states.
  bool AnyAccepting = false;
  for (uint32_t I = 0; I < NumQ2; ++I) {
    State S = Q2State(I);
    if (R.chance(AcceptPercent, 100)) {
      A.setAccepting(S);
      AnyAccepting = true;
    }
    for (Symbol Sym = 0; Sym < NumSymbols; ++Sym)
      A.addTransition(S, Sym, Q2State(R.below(NumQ2)));
  }
  if (!AnyAccepting)
    A.setAccepting(Q2State(R.below(NumQ2)));
  A.addInitial(NumQ1 > 0 ? 0 : Q2State(0));
  return A;
}

Buchi termcheck::randomDba(Rng &R, uint32_t NumStates, uint32_t NumSymbols,
                           uint32_t AcceptPercent) {
  assert(NumStates > 0 && NumSymbols > 0 && "empty spec");
  Buchi A(NumSymbols, 1);
  A.addStates(NumStates);
  for (State S = 0; S < NumStates; ++S) {
    if (R.chance(AcceptPercent, 100))
      A.setAccepting(S);
    for (Symbol Sym = 0; Sym < NumSymbols; ++Sym)
      A.addTransition(S, Sym, static_cast<State>(R.below(NumStates)));
  }
  A.addInitial(0);
  return A;
}

Buchi termcheck::scatterStates(Rng &R, const Buchi &A, uint32_t NumStates) {
  assert(NumStates >= A.numStates() && "the injection needs room");
  std::vector<State> Ids(NumStates);
  for (State S = 0; S < NumStates; ++S)
    Ids[S] = S;
  for (State S = NumStates; S > 1; --S) // Fisher-Yates
    std::swap(Ids[S - 1], Ids[R.below(S)]);
  Buchi Out(A.numSymbols(), A.numConditions());
  Out.addStates(NumStates);
  for (State S = 0; S < A.numStates(); ++S) {
    Out.setAcceptMask(Ids[S], A.acceptMask(S));
    for (const Buchi::Arc &Arc : A.arcsFrom(S))
      Out.addTransition(Ids[S], Arc.Sym, Ids[Arc.To]);
  }
  for (State S : A.initials().elems())
    Out.addInitial(Ids[S]);
  return Out;
}

LassoWord termcheck::randomLasso(Rng &R, uint32_t NumSymbols, uint32_t MaxStem,
                                 uint32_t MaxLoop) {
  assert(NumSymbols > 0 && MaxLoop > 0 && "loop cannot be empty");
  LassoWord W;
  uint32_t StemLen = static_cast<uint32_t>(R.below(MaxStem + 1));
  uint32_t LoopLen = 1 + static_cast<uint32_t>(R.below(MaxLoop));
  for (uint32_t I = 0; I < StemLen; ++I)
    W.Stem.push_back(static_cast<Symbol>(R.below(NumSymbols)));
  for (uint32_t I = 0; I < LoopLen; ++I)
    W.Loop.push_back(static_cast<Symbol>(R.below(NumSymbols)));
  return W;
}
