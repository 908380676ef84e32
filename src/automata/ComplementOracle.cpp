//===- automata/ComplementOracle.cpp - On-the-fly complements ------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "automata/ComplementOracle.h"

#include <deque>

using namespace termcheck;

Buchi ComplementOracle::materialize() {
  Buchi Out(numSymbols(), 1);
  // Every oracle hands out small dense-ish ids (intern ids, or the DBA
  // complement's (q << 1) | copy encoding), so the id -> explicit-state map
  // is a flat vector with a sentinel instead of a hash map.
  constexpr State Unmapped = ~State(0);
  std::vector<State> Map;
  std::deque<State> Work;
  auto Intern = [&](State S) {
    if (S >= Map.size())
      Map.resize(S + 1, Unmapped);
    if (Map[S] != Unmapped)
      return Map[S];
    State Fresh = Out.addState();
    if (isAccepting(S))
      Out.setAccepting(Fresh);
    Map[S] = Fresh;
    Work.push_back(S);
    return Fresh;
  };
  for (State S : initialStates())
    Out.addInitial(Intern(S));
  std::vector<State> Buf;
  while (!Work.empty()) {
    State S = Work.front();
    Work.pop_front();
    State From = Map[S];
    for (Symbol Sym = 0; Sym < numSymbols(); ++Sym) {
      Buf.clear();
      successors(S, Sym, Buf);
      for (State T : Buf)
        Out.addTransition(From, Sym, Intern(T));
    }
  }
  Out.compact(); // row placement and dedup belong to the construction
  return Out;
}
