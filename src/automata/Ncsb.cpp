//===- automata/Ncsb.cpp - NCSB complementation of SDBAs ------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "automata/Ncsb.h"

#include "support/Error.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace termcheck;

namespace {

/// Calls \p F(State) for every member, in ascending order, of the W-word
/// bitset whose word I is \p WordOf(I).
template <typename WordFn, typename Fn>
void forEachState(size_t W, WordFn WordOf, Fn F) {
  for (size_t I = 0; I < W; ++I)
    for (uint64_t X = WordOf(I); X != 0; X &= X - 1)
      F(static_cast<State>(I * 64 + std::countr_zero(X)));
}

uint64_t bitOf(State Q) { return uint64_t(1) << (Q % 64); }

bool isEmptySet(const uint64_t *X, size_t W) {
  return std::all_of(X, X + W, [](uint64_t Word) { return Word == 0; });
}

void clearSet(std::vector<uint64_t> &X) { std::fill(X.begin(), X.end(), 0); }

} // namespace

StateSet NcsbMacroState::decode(size_t Part) const {
  const uint64_t *P = part(Part);
  std::vector<State> Elems;
  forEachState(
      width(), [P](size_t I) { return P[I]; },
      [&Elems](State Q) { Elems.push_back(Q); });
  return StateSet(std::move(Elems));
}

NcsbOracle::NcsbOracle(const Sdba &In, NcsbVariant Variant)
    : In(In), Variant(Variant), W((In.A.numStates() + 63) / 64), F(W),
      Q2(W), Macro(4 * W), Cur(4 * W), T(W), D(W), MustS(W), Must(W),
      Free(W), Succ(W), Sel(W), Next(4 * W) {
  assert(In.A.isComplete() && "NCSB expects a complete SDBA");
  In.A.ensureIndex(); // one build up front; the input never mutates
  for (State Q = 0; Q < In.A.numStates(); ++Q) {
    if (In.isAccepting(Q))
      F[Q / 64] |= bitOf(Q);
    if (In.inQ2(Q))
      Q2[Q / 64] |= bitOf(Q);
  }
}

std::vector<State> NcsbOracle::initialStates() {
  // (Q1 cap QI, Q2 cap QI, empty, Q2 cap QI), Definition 5.1.
  clearSet(Next);
  for (State Q : In.A.initials().elems()) {
    if (In.inQ2(Q)) {
      Next[W + Q / 64] |= bitOf(Q);
      Next[3 * W + Q / 64] |= bitOf(Q);
    } else {
      Next[Q / 64] |= bitOf(Q);
    }
  }
  return {Macro.intern(Next.data())};
}

void NcsbOracle::successors(State Id, Symbol Sym, std::vector<State> &Out) {
  FaultInjector::hit(FaultSite::NcsbSuccessor);
  // Interning a successor may grow the word arena and move the expanded
  // macro-state, so read it from a copy.
  std::copy_n(Macro.words(Id), 4 * W, Cur.begin());
  const uint64_t *N = Cur.data(), *C = N + W, *S = C + W, *B = S + W;
  bool Lazy = Variant == NcsbVariant::Lazy;
  bool BEmpty = isEmptySet(B, W);
  // Definition 5.1 and the lazy rules a1-a6 guess the successors of C.
  // Rules b1-b6 (lazy, B nonempty) guess only those of B; the rest of C
  // follows deterministically (rule b5).
  bool RulesB = Lazy && !BEmpty;
  const uint64_t *G = RulesB ? B : C;
  // Out |= delta(X, Sym), where word I of X is WordOf(I).
  auto Post = [&](auto WordOf, std::vector<uint64_t> &Out) {
    forEachState(W, WordOf, [&](State Q) {
      auto [It, End] = In.A.successorsSpan(Q, Sym);
      for (; It != End; ++It)
        Out[*It / 64] |= bitOf(*It);
    });
  };

  // MustS = delta_2(S): safe runs stay safe (rule 4) and may never touch
  // an accepting state.
  clearSet(MustS);
  Post([S](size_t I) { return S[I]; }, MustS);
  for (size_t I = 0; I < W; ++I)
    if (MustS[I] & F[I])
      return;

  // D is the part of Q2 to distribute over the guessed set and S'. Must is
  // what the guessed set has to keep: delta_2(G \ F) (rule 5, which the
  // a-rules drop, and its counterpart for B) and D cap F (S' is
  // accepting-free).
  clearSet(T);
  clearSet(D);
  clearSet(Must);
  Post([N](size_t I) { return N[I]; }, T);
  Post([&](size_t I) { return G[I] & ~F[I]; }, Lazy && BEmpty ? D : Must);
  Post([&](size_t I) { return G[I] & F[I]; }, D);
  uint64_t *NextN = Next.data(), *NextC = NextN + W,
           *NextS = NextC + W, *NextB = NextS + W;
  for (size_t I = 0; I < W; ++I) {
    NextN[I] = T[I] & ~Q2[I]; // N' = delta(N) cap Q1, fixed across splits
    T[I] &= Q2[I];            // T = delta(N) cap Q2
    D[I] |= Must[I] | MustS[I] | (RulesB ? 0 : T[I]);
    Must[I] |= D[I] & F[I];
    if (Must[I] & MustS[I])
      return; // rule 3 (b3) cannot hold
    Free[I] = D[I] & ~(Must[I] | MustS[I]);
  }
  // The deterministic components: B' = delta_2(B) cap C' under Definition
  // 5.1 with B nonempty, C' = (delta_2(C) cup T) \ S' under rule b5.
  if (!BEmpty) {
    clearSet(Succ);
    Post([&](size_t I) { return RulesB ? C[I] : B[I]; }, Succ);
    if (RulesB)
      for (size_t I = 0; I < W; ++I)
        Succ[I] |= T[I];
  }

  FreeStates.clear();
  forEachState(
      W, [this](size_t I) { return Free[I]; },
      [this](State Q) { FreeStates.push_back(Q); });
  // A free set this wide means 2^|Free| successor macro-states: not a bug
  // but an input the construction cannot afford. ResourceExhausted (not an
  // assert, which NDEBUG removes) lets the analyzer retire this
  // subtraction and degrade.
  if (FreeStates.size() > 24)
    throw EngineError(ErrorKind::ResourceExhausted,
                      "NCSB free-set explosion (" +
                          std::to_string(FreeStates.size()) + " states)");
  clearSet(Sel);
  uint32_t Count = 1u << FreeStates.size();
  for (uint32_t Bits = 0; Bits < Count; ++Bits) {
    // 2^|Free| emissions happen between two polls of the difference
    // engine's own budget hook, so a losing portfolio configuration could
    // otherwise sit here long after the race is decided. A truncated
    // enumeration is unsound; aborted() tells the caller to discard it.
    if (pollAbort())
      return;
    // Sel holds FreeStates[I] iff bit I of Bits is set: the I-th smallest
    // free state goes to the guessed set. Counting up clears the trailing
    // ones and sets the bit above them.
    if (Bits != 0) {
      unsigned Low = static_cast<unsigned>(std::countr_zero(Bits));
      for (unsigned I = 0; I < Low; ++I)
        Sel[FreeStates[I] / 64] &= ~bitOf(FreeStates[I]);
      Sel[FreeStates[Low] / 64] |= bitOf(FreeStates[Low]);
    }
    for (size_t I = 0; I < W; ++I) {
      uint64_t Guess = Must[I] | Sel[I];
      NextS[I] = MustS[I] | (Free[I] & ~Sel[I]);
      if (RulesB) {
        NextB[I] = Guess;
        NextC[I] = Succ[I] & ~NextS[I]; // rule b5
      } else {
        NextC[I] = Guess;
        NextB[I] = BEmpty ? Guess : Succ[I] & Guess; // B' = C' when B = {}
      }
    }
    Out.push_back(Macro.intern(Next.data()));
  }
}

bool NcsbOracle::isAccepting(State Id) {
  return isEmptySet(Macro.words(Id) + 3 * W, W);
}

bool NcsbOracle::subsumedBy(State Sub, State Sup) const {
  // p [= r  iff  Np supseteq Nr, Cp supseteq Cr, Sp supseteq Sr (Eq. 4);
  // the lazy variant needs the stronger [=_B with Bp supseteq Br (Eq. 5,
  // Theorem 6.4 and the Remark in Section 6.2). The parts are contiguous,
  // so either relation is one word-wise inclusion over a prefix.
  const uint64_t *P = Macro.words(Sub), *R = Macro.words(Sup);
  size_t Words = (Variant == NcsbVariant::Lazy ? 4 : 3) * W;
  for (size_t I = 0; I < Words; ++I)
    if (R[I] & ~P[I])
      return false;
  return true;
}
