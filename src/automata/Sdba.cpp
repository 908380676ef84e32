//===- automata/Sdba.cpp - Semideterministic BA toolkit -------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "automata/Sdba.h"

#include <cassert>
#include <deque>

using namespace termcheck;

SdbaSplit termcheck::classifySdba(const Buchi &A) {
  assert(A.numConditions() == 1 && "SDBA classification expects a plain BA");
  SdbaSplit Split;
  Split.InQ2.assign(A.numStates(), false);

  // Q2 = states reachable from some accepting state (inclusive).
  std::deque<State> Work;
  for (State S = 0; S < A.numStates(); ++S) {
    if (A.acceptMask(S) != 0) {
      Split.InQ2[S] = true;
      Work.push_back(S);
    }
  }
  while (!Work.empty()) {
    State S = Work.front();
    Work.pop_front();
    for (const Buchi::Arc &Arc : A.arcsFrom(S)) {
      if (!Split.InQ2[Arc.To]) {
        Split.InQ2[Arc.To] = true;
        Work.push_back(Arc.To);
      }
    }
  }

  // The Q2 part must be deterministic.
  for (State S = 0; S < A.numStates(); ++S) {
    if (!Split.InQ2[S])
      continue;
    std::vector<bool> Seen(A.numSymbols(), false);
    for (const Buchi::Arc &Arc : A.arcsFrom(S)) {
      if (Seen[Arc.Sym])
        return Split; // IsSemideterministic stays false
      Seen[Arc.Sym] = true;
    }
  }
  Split.IsSemideterministic = true;
  return Split;
}

std::optional<Sdba> termcheck::prepareSdba(const Buchi &Input) {
  SdbaSplit Split = classifySdba(Input);
  if (!Split.IsSemideterministic)
    return std::nullopt;

  // Copy and normalize: every transition from Q1 into a non-accepting Q2
  // state q, and every non-accepting initial state inside Q2, is redirected
  // to an accepting twin of q with the same outgoing transitions
  // (Section 2). The twin adds only finitely many extra accepting visits
  // per run, so the language is unchanged.
  Buchi A(Input.numSymbols(), 1);
  A.addStates(Input.numStates());
  std::vector<bool> InQ2 = Split.InQ2;
  for (State S = 0; S < Input.numStates(); ++S)
    A.setAcceptMask(S, Input.acceptMask(S));

  std::vector<State> Twin(Input.numStates(), UINT32_MAX);
  auto TwinOf = [&](State Q) {
    if (Twin[Q] != UINT32_MAX)
      return Twin[Q];
    State T = A.addState();
    A.setAccepting(T);
    InQ2.push_back(true);
    Twin[Q] = T;
    return T;
  };

  // Transitions: Q1 -> non-accepting Q2 targets are redirected.
  for (State S = 0; S < Input.numStates(); ++S) {
    bool FromQ1 = !Split.InQ2[S];
    for (const Buchi::Arc &Arc : Input.arcsFrom(S)) {
      State To = Arc.To;
      if (FromQ1 && Split.InQ2[To] && Input.acceptMask(To) == 0)
        To = TwinOf(Arc.To);
      A.addTransition(S, Arc.Sym, To);
    }
  }
  // Initial states: non-accepting initial Q2 states become their twins.
  // This must run before the twin-copy pass so twins created here also get
  // their outgoing transitions.
  for (State S : Input.initials().elems()) {
    if (Split.InQ2[S] && Input.acceptMask(S) == 0)
      A.addInitial(TwinOf(S));
    else
      A.addInitial(S);
  }
  // Twins copy the outgoing transitions of their originals (which stay
  // deterministic, hence so do the twins).
  for (State Q = 0; Q < Input.numStates(); ++Q) {
    if (Twin[Q] == UINT32_MAX)
      continue;
    for (const Buchi::Arc &Arc : Input.arcsFrom(Q))
      A.addTransition(Twin[Q], Arc.Sym, Arc.To);
  }

  // Completion with part-local sinks. The Q1 sink lives in Q1; the Q2 sink
  // is a rejecting deterministic trap, so Q2 stays deterministic and no
  // non-accepting Q2 entry from Q1 is created (Q1's missing symbols go to
  // the Q1 sink).
  State SinkQ1 = UINT32_MAX, SinkQ2 = UINT32_MAX;
  auto Sink = [&](bool ForQ2) -> State {
    State &Slot = ForQ2 ? SinkQ2 : SinkQ1;
    if (Slot != UINT32_MAX)
      return Slot;
    Slot = A.addState();
    InQ2.push_back(ForQ2);
    for (Symbol Sym = 0; Sym < A.numSymbols(); ++Sym)
      A.addTransition(Slot, Sym, Slot);
    return Slot;
  };
  // The missing (state, symbol) pairs are collected before any sink arc
  // is added: each read after an append would compact A's rows again.
  std::vector<std::pair<State, Symbol>> Missing;
  std::vector<bool> Has;
  for (State S = 0; S < A.numStates(); ++S) {
    Has.assign(A.numSymbols(), false);
    for (const Buchi::Arc &Arc : A.arcsFrom(S))
      Has[Arc.Sym] = true;
    for (Symbol Sym = 0; Sym < A.numSymbols(); ++Sym)
      if (!Has[Sym])
        Missing.push_back({S, Sym});
  }
  for (auto [S, Sym] : Missing)
    A.addTransition(S, Sym, Sink(InQ2[S]));

  Sdba Out{std::move(A), std::move(InQ2)};
  assert(classifySdba(Out.A).IsSemideterministic &&
         "normalization must preserve semideterminism");
  return Out;
}
