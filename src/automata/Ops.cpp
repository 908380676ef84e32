//===- automata/Ops.cpp - Basic automata operations -----------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "automata/Ops.h"

#include "automata/DbaComplement.h"
#include "automata/Difference.h"
#include "automata/Interner.h"
#include "automata/Ncsb.h"
#include "automata/Sdba.h"

#include <cassert>
#include <deque>

using namespace termcheck;

Buchi termcheck::completeWithSink(const Buchi &A) {
  // First check completeness to avoid a useless copy with a dead sink.
  bool NeedsSink = !A.isComplete();
  Buchi Out(A.numSymbols(), A.numConditions());
  Out.addStates(A.numStates());
  for (State S = 0; S < A.numStates(); ++S) {
    Out.setAcceptMask(S, A.acceptMask(S));
    for (const Buchi::Arc &Arc : A.arcsFrom(S))
      Out.addTransition(S, Arc.Sym, Arc.To);
  }
  for (State S : A.initials().elems())
    Out.addInitial(S);
  if (!NeedsSink)
    return Out;
  State Sink = Out.addState();
  for (Symbol Sym = 0; Sym < A.numSymbols(); ++Sym)
    Out.addTransition(Sink, Sym, Sink);
  // isComplete() above already built A's transition index, so per-(state,
  // symbol) emptiness is a span check instead of a scan over arcsFrom.
  for (State S = 0; S < A.numStates(); ++S) {
    for (Symbol Sym = 0; Sym < A.numSymbols(); ++Sym) {
      auto [B, E] = A.successorsSpan(S, Sym);
      if (B == E)
        Out.addTransition(S, Sym, Sink);
    }
  }
  return Out;
}

Buchi termcheck::restrictToStates(const Buchi &A, const StateSet &Keep) {
  Buchi Out(A.numSymbols(), A.numConditions());
  constexpr State Dropped = ~State(0);
  std::vector<State> Map(A.numStates(), Dropped);
  for (State S : Keep.elems()) {
    State Fresh = Out.addState();
    Out.setAcceptMask(Fresh, A.acceptMask(S));
    Map[S] = Fresh;
  }
  for (State S : Keep.elems()) {
    for (const Buchi::Arc &Arc : A.arcsFrom(S))
      if (Map[Arc.To] != Dropped)
        Out.addTransition(Map[S], Arc.Sym, Map[Arc.To]);
  }
  for (State S : A.initials().elems())
    if (Map[S] != Dropped)
      Out.addInitial(Map[S]);
  return Out;
}

Buchi termcheck::trim(const Buchi &A) {
  return restrictToStates(A, A.reachableStates());
}

Buchi termcheck::dropFullConditions(const Buchi &A) {
  // A condition is full when every state satisfies it.
  uint64_t FullConds = A.fullMask();
  for (State S = 0; S < A.numStates(); ++S)
    FullConds &= A.acceptMask(S);
  if (FullConds == 0)
    return A;

  // Build the index remap for the surviving conditions.
  std::vector<uint32_t> KeptBits;
  for (uint32_t C = 0; C < A.numConditions(); ++C)
    if (!(FullConds & (1ULL << C)))
      KeptBits.push_back(C);
  if (KeptBits.empty())
    KeptBits.push_back(0); // fully trivial acceptance: keep one condition

  Buchi Out(A.numSymbols(), static_cast<uint32_t>(KeptBits.size()));
  Out.addStates(A.numStates());
  for (State S = 0; S < A.numStates(); ++S) {
    uint64_t Mask = 0;
    for (size_t I = 0; I < KeptBits.size(); ++I)
      if (A.acceptMask(S) & (1ULL << KeptBits[I]))
        Mask |= 1ULL << I;
    Out.setAcceptMask(S, Mask);
    for (const Buchi::Arc &Arc : A.arcsFrom(S))
      Out.addTransition(S, Arc.Sym, Arc.To);
  }
  for (State S : A.initials().elems())
    Out.addInitial(S);
  return Out;
}

Buchi termcheck::degeneralize(const Buchi &A) {
  const uint32_t K = A.numConditions();
  if (K == 1)
    return A;
  // Layers 0..K-1 await condition i; layer K marks a completed round and is
  // the (only) accepting layer. Successor layers advance through every
  // condition the target state satisfies.
  Buchi Out(A.numSymbols(), 1);
  PairInterner Index;
  auto Intern = [&](State Q, uint32_t Layer) {
    auto [Fresh, Inserted] = Index.intern(Q, Layer);
    if (Inserted) {
      State Added = Out.addState();
      assert(Added == Fresh && "pair ids must track output states");
      (void)Added;
      if (Layer == K)
        Out.setAccepting(Fresh);
    }
    return Fresh;
  };
  auto Advance = [&](uint32_t Layer, State Target) {
    uint32_t J = Layer == K ? 0 : Layer;
    while (J < K && (A.acceptMask(Target) & (1ULL << J)))
      ++J;
    return J;
  };
  std::deque<State> Work;
  for (State Q : A.initials().elems()) {
    State S = Intern(Q, Advance(K, Q));
    Out.addInitial(S);
    Work.push_back(S);
  }
  std::vector<bool> Expanded;
  while (!Work.empty()) {
    State S = Work.front();
    Work.pop_front();
    if (S < Expanded.size() && Expanded[S])
      continue;
    if (S >= Expanded.size())
      Expanded.resize(S + 1, false);
    Expanded[S] = true;
    auto [Q, Layer] = Index.get(S);
    for (const Buchi::Arc &Arc : A.arcsFrom(Q)) {
      State T = Intern(Arc.To, Advance(Layer, Arc.To));
      Out.addTransition(S, Arc.Sym, T);
      if (T >= Expanded.size() || !Expanded[T])
        Work.push_back(T);
    }
  }
  return Out;
}

Buchi termcheck::intersect(const Buchi &A, const Buchi &B) {
  assert(A.numSymbols() == B.numSymbols() && "alphabet mismatch");
  uint32_t Conds = A.numConditions() + B.numConditions();
  assert(Conds <= 64 && "too many acceptance conditions");
  Buchi Out(A.numSymbols(), Conds);
  B.ensureIndex(); // the inner loop below queries B per (state, symbol)

  PairInterner Index;
  auto Intern = [&](State P, State Q) {
    auto [Fresh, Inserted] = Index.intern(P, Q);
    if (Inserted) {
      State Added = Out.addState();
      assert(Added == Fresh && "pair ids must track output states");
      (void)Added;
      uint64_t Mask =
          A.acceptMask(P) | (B.acceptMask(Q) << A.numConditions());
      Out.setAcceptMask(Fresh, Mask);
    }
    return Fresh;
  };

  std::deque<State> Work;
  for (State P : A.initials().elems()) {
    for (State Q : B.initials().elems()) {
      State S = Intern(P, Q);
      Out.addInitial(S);
      Work.push_back(S);
    }
  }
  std::vector<bool> Expanded;
  while (!Work.empty()) {
    State S = Work.front();
    Work.pop_front();
    if (S < Expanded.size() && Expanded[S])
      continue;
    if (S >= Expanded.size())
      Expanded.resize(S + 1, false);
    Expanded[S] = true;
    auto [P, Q] = Index.get(S);
    for (const Buchi::Arc &ArcA : A.arcsFrom(P)) {
      // Matching B-arcs come from the CSR row for (Q, ArcA.Sym) instead of
      // rescanning all of Q's arcs per A-arc.
      B.forEachSuccessor(Q, ArcA.Sym, [&](State BTo) {
        State T = Intern(ArcA.To, BTo);
        Out.addTransition(S, ArcA.Sym, T);
        if (T >= Expanded.size() || !Expanded[T])
          Work.push_back(T);
      });
    }
  }
  return Out;
}

Buchi termcheck::unionBa(const Buchi &A, const Buchi &B) {
  assert(A.numSymbols() == B.numSymbols() && "alphabet mismatch");
  assert(A.numConditions() == 1 && B.numConditions() == 1 &&
         "union expects plain BAs");
  Buchi Out(A.numSymbols(), 1);
  State BaseA = Out.addStates(A.numStates());
  State BaseB = Out.addStates(B.numStates());
  for (State S = 0; S < A.numStates(); ++S) {
    Out.setAcceptMask(BaseA + S, A.acceptMask(S));
    for (const Buchi::Arc &Arc : A.arcsFrom(S))
      Out.addTransition(BaseA + S, Arc.Sym, BaseA + Arc.To);
  }
  for (State S = 0; S < B.numStates(); ++S) {
    Out.setAcceptMask(BaseB + S, B.acceptMask(S));
    for (const Buchi::Arc &Arc : B.arcsFrom(S))
      Out.addTransition(BaseB + S, Arc.Sym, BaseB + Arc.To);
  }
  for (State S : A.initials().elems())
    Out.addInitial(BaseA + S);
  for (State S : B.initials().elems())
    Out.addInitial(BaseB + S);
  return Out;
}

std::optional<bool> termcheck::isIncludedIn(const Buchi &A, const Buchi &B) {
  assert(A.numSymbols() == B.numSymbols() && "alphabet mismatch");
  // A pure language-inclusion query never needs the materialized
  // difference, so let Algorithm 1 stop at the first accepting SCC.
  DifferenceOptions Opts;
  Opts.EmptinessOnly = true;
  Buchi Complete = completeWithSink(B);
  if (Complete.isDeterministic()) {
    DbaComplementOracle O(Complete);
    return difference(A, O, Opts).IsEmpty;
  }
  std::optional<Sdba> Prepared = prepareSdba(Complete);
  if (!Prepared)
    return std::nullopt;
  NcsbOracle O(*Prepared, NcsbVariant::Lazy);
  return difference(A, O, Opts).IsEmpty;
}

std::optional<bool> termcheck::isEquivalent(const Buchi &A, const Buchi &B) {
  std::optional<bool> AB = isIncludedIn(A, B);
  if (!AB)
    return std::nullopt;
  if (!*AB)
    return false;
  std::optional<bool> BA = isIncludedIn(B, A);
  if (!BA)
    return std::nullopt;
  return *BA;
}
