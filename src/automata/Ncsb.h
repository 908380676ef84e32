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
/// Representation. A macro-state is four bitsets over the SDBA's states,
/// W = ceil(|Q| / 64) words each, laid out N | C | S | B. The oracle keeps
/// every interned macro-state in one word arena (WordInterner), the 4W
/// words of id I at offset 4W * I, so no macro-state owns heap memory. The
/// rules are word loops: delta of a set ORs in one bit per target of each
/// member's CSR successor span (Buchi::successorsSpan), F and Q2 are masks
/// built once per oracle, [= and [=_B are word-wise inclusion, and the
/// interner hashes the words.
///
/// Ids and emission order do not depend on the representation. Ids are
/// dense in first-intern order, and the splits of the free set are emitted
/// in counter order, counter bit I sending the I-th smallest free state to
/// the guessed set. So intern ids, successor order, and every complement
/// and difference built from the oracle equal those of the sorted-set
/// construction in tests/NcsbReference.h; ncsb_equivalence_test checks
/// this id for id.
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

/// An NCSB macro-state (N, C, S, B) with B subseteq C and S cap F = empty:
/// four W-word bitsets stored as N | C | S | B. The oracle stores its
/// macro-states in a word arena; this is the decoded copy it hands out
/// for tests and str().
struct NcsbMacroState {
  std::vector<uint64_t> Words;

  /// Words per part.
  size_t width() const { return Words.size() / 4; }
  /// Part \p I (0 = N, 1 = C, 2 = S, 3 = B) as a pointer to its words.
  const uint64_t *part(size_t I) const { return Words.data() + I * width(); }

  // The parts decoded to sorted sets (tests, str()). Each returns a fresh
  // value: bind it to a named local before iterating over its elems().
  StateSet N() const { return decode(0); }
  StateSet C() const { return decode(1); }
  StateSet S() const { return decode(2); }
  StateSet B() const { return decode(3); }

  std::string str() const {
    return "(" + N().str() + "," + C().str() + "," + S().str() + "," +
           B().str() + ")";
  }

private:
  StateSet decode(size_t Part) const;
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
  bool isAccepting(State S) override;
  size_t numStatesDiscovered() const override { return Macro.size(); }

  /// Section 6: [= (Original) ignores the B component; [=_B (Lazy)
  /// additionally requires B(Sub) supseteq B(Sup). Both mean
  /// component-wise superset of Sub over Sup.
  bool subsumedBy(State Sub, State Sup) const override;

  /// A copy of the interned macro-state behind a dense id (tests,
  /// debugging).
  NcsbMacroState macroState(State S) const {
    const uint64_t *X = Macro.words(S);
    return {std::vector<uint64_t>(X, X + 4 * W)};
  }

private:
  const Sdba &In;
  NcsbVariant Variant;
  size_t W; ///< words per bitset
  std::vector<uint64_t> F, Q2; ///< accepting states, deterministic part

  WordInterner Macro; ///< 4W words per macro-state

  /// Scratch of one expansion, overwritten in place: the expanded
  /// macro-state (copied out of the arena, which may grow while its
  /// successors are interned), W-word bitsets, the ascending free states,
  /// and the candidate successor probed against the interner.
  std::vector<uint64_t> Cur, T, D, MustS, Must, Free, Succ, Sel, Next;
  std::vector<State> FreeStates;
};

} // namespace termcheck

#endif // TERMCHECK_AUTOMATA_NCSB_H
