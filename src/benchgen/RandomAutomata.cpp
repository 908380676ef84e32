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

Buchi termcheck::randomClassMixedBa(Rng &R, const ClassMixedSpec &Spec) {
  assert(Spec.NumSymbols >= 2 && "block recipes need two symbols");
  assert(Spec.PrefixStates > 0 && "the prefix feeds the blocks");
  // A 1-state deterministic block with self-loops on every symbol would be
  // inherently weak (its only cycles visit the accepting state), so the
  // recipes below need a second state to host a non-accepting cycle. Same
  // for the general block, where internal nondeterminism needs two distinct
  // targets (parallel arcs are deduplicated).
  uint32_t Det = Spec.DetStates == 1 ? 2 : Spec.DetStates;
  uint32_t Gen = Spec.GeneralStates == 1 ? 2 : Spec.GeneralStates;
  uint32_t Weak = Spec.WeakStates;
  uint32_t Semi = Spec.SemiStates;
  assert(Det + Weak + Semi + Gen > 0 && "at least one accepting block");

  Buchi A(Spec.NumSymbols, 1);
  State P0 = A.addStates(Spec.PrefixStates);
  State D0 = Det ? A.addStates(Det) : 0;
  State W0 = Weak ? A.addStates(Weak) : 0;
  State S0 = Semi ? A.addStates(Semi) : 0;
  // The semideterministic block must not be Deterministic-classified, so it
  // escapes into a non-accepting nondeterministic 2-state tail.
  State T0 = Semi ? A.addStates(2) : 0;
  State G0 = Gen ? A.addStates(Gen) : 0;

  // Deterministic block: a symbol-0 ring plus symbol-1 self-loops; one
  // accepting state. Closed, complete, deterministic, and the other states'
  // self-loops are non-accepting cycles (so it is not inherently weak).
  if (Det) {
    A.setAccepting(D0 + static_cast<State>(R.below(Det)));
    for (uint32_t I = 0; I < Det; ++I) {
      A.addTransition(D0 + I, 0, D0 + (I + 1) % Det);
      for (Symbol Sym = 1; Sym < Spec.NumSymbols; ++Sym)
        A.addTransition(D0 + I, Sym, D0 + I);
    }
  }
  // Inert-weak block: every state accepting; a ring on every symbol keeps
  // it strongly connected, closed, and internally complete; extra random
  // in-block arcs add (harmless) nondeterminism.
  for (uint32_t I = 0; I < Weak; ++I) {
    A.setAccepting(W0 + I);
    for (Symbol Sym = 0; Sym < Spec.NumSymbols; ++Sym)
      A.addTransition(W0 + I, Sym, W0 + (I + 1) % Weak);
    if (R.chance(40, 100))
      A.addTransition(W0 + I, static_cast<Symbol>(R.below(Spec.NumSymbols)),
                      W0 + static_cast<State>(R.below(Weak)));
  }
  // Semideterministic block: internally a deterministic ring with self-loops
  // (like the deterministic block), but one state carries a second symbol-1
  // arc into the nondeterministic tail, so the downstream closure is
  // nondeterministic while the in-SCC part stays deterministic.
  if (Semi) {
    A.setAccepting(S0 + static_cast<State>(R.below(Semi)));
    for (uint32_t I = 0; I < Semi; ++I) {
      A.addTransition(S0 + I, 0, S0 + (I + 1) % Semi);
      for (Symbol Sym = 1; Sym < Spec.NumSymbols; ++Sym)
        A.addTransition(S0 + I, Sym, S0 + I);
    }
    A.addTransition(S0 + static_cast<State>(R.below(Semi)), 1, T0);
    A.addTransition(T0, 0, T0);
    A.addTransition(T0, 0, T0 + 1);
    for (Symbol Sym = 1; Sym < Spec.NumSymbols; ++Sym)
      A.addTransition(T0, Sym, T0 + 1);
    for (Symbol Sym = 0; Sym < Spec.NumSymbols; ++Sym)
      A.addTransition(T0 + 1, Sym, T0 + 1);
  }
  // General block: ring + self-loops as above, plus a deliberate second
  // symbol-0 successor inside the SCC (internal nondeterminism) and random
  // extra in-block arcs. Closed, so its co-reach cut -- what the rank
  // engine sees -- stays at prefix + block.
  if (Gen) {
    A.setAccepting(G0 + static_cast<State>(R.below(Gen)));
    for (uint32_t I = 0; I < Gen; ++I) {
      A.addTransition(G0 + I, 0, G0 + (I + 1) % Gen);
      for (Symbol Sym = 1; Sym < Spec.NumSymbols; ++Sym)
        A.addTransition(G0 + I, Sym, G0 + I);
      if (R.chance(30, 100))
        A.addTransition(G0 + I, static_cast<Symbol>(R.below(Spec.NumSymbols)),
                        G0 + static_cast<State>(R.below(Gen)));
    }
    State Fork = G0 + static_cast<State>(R.below(Gen));
    A.addTransition(Fork, 0, Fork); // ring target differs since Gen >= 2
  }

  // Nondeterministic non-accepting prefix: random arcs into the prefix and
  // the entry state of each enabled block, plus one guaranteed arc per
  // block so every class is reachable on every seed.
  std::vector<State> Pool;
  for (uint32_t I = 0; I < Spec.PrefixStates; ++I)
    Pool.push_back(P0 + I);
  std::vector<State> Entries;
  if (Det)
    Entries.push_back(D0);
  if (Weak)
    Entries.push_back(W0);
  if (Semi)
    Entries.push_back(S0);
  if (Gen)
    Entries.push_back(G0);
  Pool.insert(Pool.end(), Entries.begin(), Entries.end());
  for (uint32_t I = 0; I < Spec.PrefixStates; ++I) {
    // A symbol-1 ring keeps every prefix state (and hence every guaranteed
    // block-entry arc below) reachable from the initial state.
    A.addTransition(P0 + I, 1, P0 + (I + 1) % Spec.PrefixStates);
    for (Symbol Sym = 0; Sym < Spec.NumSymbols; ++Sym) {
      A.addTransition(P0 + I, Sym, Pool[R.below(Pool.size())]);
      if (R.chance(50, 100))
        A.addTransition(P0 + I, Sym, Pool[R.below(Pool.size())]);
    }
  }
  for (State E : Entries)
    A.addTransition(P0 + static_cast<State>(R.below(Spec.PrefixStates)),
                    static_cast<Symbol>(R.below(Spec.NumSymbols)), E);
  // Guaranteed nondeterministic fork at the initial state, so the automaton
  // as a whole is never deterministic regardless of the seed.
  A.addTransition(P0, 0, P0);
  A.addTransition(P0, 0, Entries.front());
  A.addInitial(P0);
  return A;
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
