//===- automata/Ncsb.h - NCSB complementation of SDBAs --------*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two SDBA complementation algorithms of Section 5:
///
/// * NCSB-Original (Definition 5.1, Blahoudek et al. [12]): macro-states
///   (N, C, S, B); every time a run in C leaves an accepting state the
///   algorithm eagerly guesses whether it stays in C or moves to the safe
///   set S.
/// * NCSB-Lazy (Section 5.3): the guess is delayed -- while B is nonempty
///   only successors of accepting states inside B may be released to S;
///   when B empties (an accepting macro-state) the accumulated C/S split is
///   guessed wholesale. Proposition 5.2: the lazy complement never has more
///   macro-states than the original.
///
/// Both are exposed as ComplementOracles (on-the-fly, Section 4
/// optimization 1) and implement the subsumption relations of Section 6
/// ([= for Original, [=_B for Lazy) for the antichain-based emp set.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_AUTOMATA_NCSB_H
#define TERMCHECK_AUTOMATA_NCSB_H

#include "automata/ComplementOracle.h"
#include "automata/Interner.h"
#include "automata/Sdba.h"
#include "automata/StateSet.h"

namespace termcheck {

/// Which NCSB variant to run.
enum class NcsbVariant : uint8_t { Original, Lazy };

/// An NCSB macro-state (N, C, S, B) with B subseteq C and S cap F = empty.
struct NcsbMacroState {
  StateSet N, C, S, B;

  bool operator==(const NcsbMacroState &O) const {
    return N == O.N && C == O.C && S == O.S && B == O.B;
  }

  size_t hash() const {
    size_t H = N.hash();
    H = H * 0x100000001b3ULL ^ C.hash();
    H = H * 0x100000001b3ULL ^ S.hash();
    H = H * 0x100000001b3ULL ^ B.hash();
    return H;
  }

  std::string str() const {
    return "(" + N.str() + "," + C.str() + "," + S.str() + "," + B.str() +
           ")";
  }
};

/// NCSB complementation as a lazily-evaluated complement BA.
class NcsbOracle : public ComplementOracle {
public:
  /// \p In must come from prepareSdba (normalized and complete).
  /// The oracle keeps a reference; \p In must outlive it.
  NcsbOracle(const Sdba &In, NcsbVariant Variant);

  uint32_t numSymbols() const override { return In.A.numSymbols(); }
  std::vector<State> initialStates() override;
  void successors(State S, Symbol Sym, std::vector<State> &Out) override;
  bool isAccepting(State S) override { return Macro[S].B.empty(); }
  size_t numStatesDiscovered() const override { return Macro.size(); }

  /// Section 6: [= (Original) ignores the B component; [=_B (Lazy)
  /// additionally requires B(Sub) supseteq B(Sup). Both mean
  /// component-wise superset of Sub over Sup.
  bool subsumedBy(State Sub, State Sup) const override;

  /// The interned macro-state behind a dense id (tests, debugging). The
  /// reference is stable across later discoveries (arena-backed interner).
  const NcsbMacroState &macroState(State S) const { return Macro[S]; }

private:
  const Sdba &In;
  NcsbVariant Variant;

  Interner<NcsbMacroState> Macro;

  /// Scratch hoisted out of the successor helpers. The StateSets are the
  /// intermediate sets of Definition 5.1 / the lazy rules, overwritten in
  /// place each expansion so their capacity is reused; ScratchNext is the
  /// candidate macro-state probed against the interner, which copies it
  /// into the arena only on a miss. Steady-state expansions (mostly
  /// re-discovering interned macro-states) therefore allocate nothing.
  std::vector<State> ScratchA, ScratchB;
  std::vector<State> SplitA, SplitB;
  StateSet NPrime, T, D, MustS, Must2, Free, BSucc, CSucc, Tmp1, Tmp2;
  NcsbMacroState ScratchNext;

  State intern(NcsbMacroState M) { return Macro.intern(std::move(M)); }

  /// Out = deterministic-part successors of every state of \p X on \p Sym.
  void delta2Into(const StateSet &X, Symbol Sym, StateSet &Out);
  /// Splits delta(N, Sym) into its Q1 part (into \p N1) and Q2 part
  /// (into \p T).
  void deltaFromN(const StateSet &N, Symbol Sym, StateSet &N1, StateSet &T);
  /// Out = the accepting states of \p X.
  void acceptingInto(const StateSet &X, StateSet &Out);
  /// \returns true when \p X contains an accepting state.
  bool anyAccepting(const StateSet &X) const;

  void succOriginal(const NcsbMacroState &M, Symbol Sym,
                    std::vector<State> &Out);
  void succLazy(const NcsbMacroState &M, Symbol Sym, std::vector<State> &Out);

  /// Emits every two-way split of \p FreeSet as a pair of sorted vectors
  /// (reused scratch; consume before the next emission).
  template <typename Fn>
  void enumerateSplits(const StateSet &FreeSet, Fn Emit);
};

} // namespace termcheck

#endif // TERMCHECK_AUTOMATA_NCSB_H
