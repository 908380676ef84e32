//===- tests/NcsbReference.h - Set-based NCSB reference -------*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sorted-vector NCSB construction that the bitset oracle of
/// automata/Ncsb.h replaced, kept verbatim (renamed, header-only, without
/// the fault-injection site) as the differential reference of
/// ncsb_equivalence_test. Macro-states are (N, C, S, B) tuples of
/// StateSets; Definition 5.1 and the lazy rules a1-a6 / b1-b6 are StateSet
/// unions, differences and intersections; the two-way splits of the free
/// set map counter bit I to the I-th smallest free state. The bitset
/// oracle must reproduce its ids, successor order and subsumption exactly.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_TESTS_NCSBREFERENCE_H
#define TERMCHECK_TESTS_NCSBREFERENCE_H

#include "automata/ComplementOracle.h"
#include "automata/Interner.h"
#include "automata/Ncsb.h"
#include "automata/Sdba.h"
#include "automata/StateSet.h"
#include "support/Error.h"

#include <cassert>
#include <string>
#include <vector>

namespace termcheck {

/// A reference macro-state (N, C, S, B) of sorted state sets.
struct NcsbSetMacroState {
  StateSet N, C, S, B;

  bool operator==(const NcsbSetMacroState &O) const {
    return N == O.N && C == O.C && S == O.S && B == O.B;
  }

  size_t hash() const {
    size_t H = N.hash();
    H = H * 0x100000001b3ULL ^ C.hash();
    H = H * 0x100000001b3ULL ^ S.hash();
    H = H * 0x100000001b3ULL ^ B.hash();
    return H;
  }
};

/// Set-based NCSB-Original / NCSB-Lazy complement oracle.
class NcsbReferenceOracle : public ComplementOracle {
public:
  NcsbReferenceOracle(const Sdba &In, NcsbVariant Variant)
      : In(In), Variant(Variant) {
    assert(In.A.isComplete() && "NCSB expects a complete SDBA");
    In.A.ensureIndex();
  }

  uint32_t numSymbols() const override { return In.A.numSymbols(); }

  std::vector<State> initialStates() override {
    // (Q1 cap QI, Q2 cap QI, empty, Q2 cap QI), Definition 5.1.
    NcsbSetMacroState M;
    for (State S : In.A.initials().elems()) {
      if (In.inQ2(S)) {
        M.C.insert(S);
        M.B.insert(S);
      } else {
        M.N.insert(S);
      }
    }
    return {Macro.intern(std::move(M))};
  }

  void successors(State S, Symbol Sym, std::vector<State> &Out) override {
    const NcsbSetMacroState &M = Macro[S];
    if (Variant == NcsbVariant::Original)
      succOriginal(M, Sym, Out);
    else
      succLazy(M, Sym, Out);
  }

  bool isAccepting(State S) override { return Macro[S].B.empty(); }
  size_t numStatesDiscovered() const override { return Macro.size(); }

  /// Section 6: [= (Original) ignores B; [=_B (Lazy) also requires
  /// B(Sub) supseteq B(Sup).
  bool subsumedBy(State Sub, State Sup) const override {
    const NcsbSetMacroState &P = Macro[Sub];
    const NcsbSetMacroState &R = Macro[Sup];
    if (!P.N.supersetOf(R.N) || !P.C.supersetOf(R.C) || !P.S.supersetOf(R.S))
      return false;
    if (Variant == NcsbVariant::Lazy && !P.B.supersetOf(R.B))
      return false;
    return true;
  }

  const NcsbSetMacroState &macroState(State S) const { return Macro[S]; }

private:
  const Sdba &In;
  NcsbVariant Variant;

  Interner<NcsbSetMacroState> Macro;

  std::vector<State> ScratchA, ScratchB;
  std::vector<State> SplitA, SplitB;
  StateSet NPrime, T, D, MustS, Must2, Free, BSucc, CSucc, Tmp1, Tmp2;
  NcsbSetMacroState ScratchNext;

  /// Out = deterministic-part successors of every state of \p X on \p Sym.
  void delta2Into(const StateSet &X, Symbol Sym, StateSet &Out) {
    ScratchA.clear();
    for (State S : X.elems()) {
      assert(In.inQ2(S) && "delta2 applies to Q2 states only");
      In.A.successorsInto(S, Sym, ScratchA);
    }
    Out.assignNormalized(ScratchA);
  }

  /// Splits delta(N, Sym) into its Q1 part (into \p N1) and Q2 part
  /// (into \p T).
  void deltaFromN(const StateSet &N, Symbol Sym, StateSet &N1, StateSet &T) {
    ScratchA.clear();
    ScratchB.clear();
    for (State S : N.elems()) {
      In.A.forEachSuccessor(S, Sym, [this](State To) {
        (In.inQ2(To) ? ScratchB : ScratchA).push_back(To);
      });
    }
    N1.assignNormalized(ScratchA);
    T.assignNormalized(ScratchB);
  }

  /// Out = the accepting states of \p X.
  void acceptingInto(const StateSet &X, StateSet &Out) {
    ScratchA.clear();
    for (State S : X.elems())
      if (In.isAccepting(S))
        ScratchA.push_back(S);
    Out.assignNormalized(ScratchA);
  }

  /// \returns true when \p X contains an accepting state.
  bool anyAccepting(const StateSet &X) const {
    for (State S : X.elems())
      if (In.isAccepting(S))
        return true;
    return false;
  }

  /// Emits every two-way split of \p FreeSet as a pair of sorted vectors
  /// (reused scratch; consume before the next emission).
  template <typename Fn>
  void enumerateSplits(const StateSet &FreeSet, Fn Emit) {
    const auto &Elems = FreeSet.elems();
    if (Elems.size() > 24)
      throw EngineError(ErrorKind::ResourceExhausted,
                        "NCSB free-set explosion (" +
                            std::to_string(Elems.size()) + " states)");
    uint32_t Count = 1u << Elems.size();
    for (uint32_t Bits = 0; Bits < Count; ++Bits) {
      if (pollAbort())
        return;
      SplitA.clear();
      SplitB.clear();
      for (size_t I = 0; I < Elems.size(); ++I) {
        if (Bits & (1u << I))
          SplitA.push_back(Elems[I]);
        else
          SplitB.push_back(Elems[I]);
      }
      Emit(SplitA, SplitB);
    }
  }

  void succOriginal(const NcsbSetMacroState &M, Symbol Sym,
                    std::vector<State> &Out) {
    // Definition 5.1. D = delta_t(N, a) cup delta_2(C cup S, a) must be
    // partitioned into C' and S' with
    //   S' supseteq delta_2(S, a)           (rule 4)
    //   C' supseteq delta_2(C \ F, a)       (rule 5)
    //   C' supseteq D cap F                 (S' is accepting-free)
    deltaFromN(M.N, Sym, NPrime, T);
    ScratchA.clear();
    for (State S : M.C.elems()) {
      assert(In.inQ2(S) && "C must stay inside Q2");
      In.A.successorsInto(S, Sym, ScratchA);
    }
    for (State S : M.S.elems()) {
      assert(In.inQ2(S) && "S must stay inside Q2");
      In.A.successorsInto(S, Sym, ScratchA);
    }
    Tmp1.assignNormalized(ScratchA);
    D.assignUnion(T, Tmp1);

    delta2Into(M.S, Sym, MustS);
    if (anyAccepting(MustS))
      return;
    acceptingInto(M.C, Tmp1);         // C cap F
    Tmp2.assignDifference(M.C, Tmp1); // C \ F
    delta2Into(Tmp2, Sym, Tmp1);      // delta2(C \ F)
    acceptingInto(D, Tmp2);           // D cap F
    Must2.assignUnion(Tmp1, Tmp2);    // MustC
    if (Must2.intersects(MustS))
      return;

    Tmp1.assignUnion(Must2, MustS);
    Free.assignDifference(D, Tmp1);
    bool BEmpty = M.B.empty();
    if (BEmpty)
      BSucc.clear();
    else
      delta2Into(M.B, Sym, BSucc);
    ScratchNext.N = NPrime;
    enumerateSplits(Free, [&](const std::vector<State> &ToC,
                              const std::vector<State> &ToS) {
      ScratchNext.C.assignUnion(Must2, ToC);
      ScratchNext.S.assignUnion(MustS, ToS);
      if (BEmpty)
        ScratchNext.B = ScratchNext.C;
      else
        ScratchNext.B.assignIntersection(BSucc, ScratchNext.C);
      Out.push_back(Macro.intern(ScratchNext));
    });
  }

  void succLazy(const NcsbSetMacroState &M, Symbol Sym,
                std::vector<State> &Out) {
    deltaFromN(M.N, Sym, NPrime, T);

    if (M.B.empty()) {
      // Rules a1-a6: like the original but with rule 5 removed.
      ScratchA.clear();
      for (State S : M.C.elems()) {
        assert(In.inQ2(S) && "C must stay inside Q2");
        In.A.successorsInto(S, Sym, ScratchA);
      }
      for (State S : M.S.elems()) {
        assert(In.inQ2(S) && "S must stay inside Q2");
        In.A.successorsInto(S, Sym, ScratchA);
      }
      Tmp1.assignNormalized(ScratchA);
      D.assignUnion(T, Tmp1);
      delta2Into(M.S, Sym, MustS);
      if (anyAccepting(MustS))
        return;
      acceptingInto(D, Must2); // MustC
      if (Must2.intersects(MustS))
        return;
      Tmp1.assignUnion(Must2, MustS);
      Free.assignDifference(D, Tmp1);
      ScratchNext.N = NPrime;
      enumerateSplits(Free, [&](const std::vector<State> &ToC,
                                const std::vector<State> &ToS) {
        ScratchNext.C.assignUnion(Must2, ToC);
        ScratchNext.S.assignUnion(MustS, ToS);
        ScratchNext.B = ScratchNext.C; // rule a6
        Out.push_back(Macro.intern(ScratchNext));
      });
      return;
    }

    // Rules b1-b6: only the successors of accepting states inside B may be
    // guessed into S; C follows deterministically (rule b5).
    ScratchA.clear(); // DB = delta2(B cup S)
    for (State S : M.B.elems()) {
      assert(In.inQ2(S) && "B must stay inside Q2");
      In.A.successorsInto(S, Sym, ScratchA);
    }
    for (State S : M.S.elems()) {
      assert(In.inQ2(S) && "S must stay inside Q2");
      In.A.successorsInto(S, Sym, ScratchA);
    }
    D.assignNormalized(ScratchA);
    delta2Into(M.S, Sym, MustS);
    if (anyAccepting(MustS))
      return;
    acceptingInto(M.B, Tmp1);         // B cap F
    Tmp2.assignDifference(M.B, Tmp1); // B \ F
    delta2Into(Tmp2, Sym, Tmp1);      // delta2(B \ F)
    acceptingInto(D, Tmp2);           // DB cap F
    Must2.assignUnion(Tmp1, Tmp2);    // MustB
    if (Must2.intersects(MustS))
      return;
    Tmp1.assignUnion(Must2, MustS);
    Free.assignDifference(D, Tmp1);
    delta2Into(M.C, Sym, Tmp1);
    CSucc.assignUnion(Tmp1, T); // delta2(C) cup T
    ScratchNext.N = NPrime;
    enumerateSplits(Free, [&](const std::vector<State> &ToB,
                              const std::vector<State> &ToS) {
      ScratchNext.B.assignUnion(Must2, ToB);
      ScratchNext.S.assignUnion(MustS, ToS);
      ScratchNext.C.assignDifference(CSucc, ScratchNext.S); // rule b5
      Out.push_back(Macro.intern(ScratchNext));
    });
  }
};

} // namespace termcheck

#endif // TERMCHECK_TESTS_NCSBREFERENCE_H
