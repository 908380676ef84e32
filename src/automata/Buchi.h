//===- automata/Buchi.h - (Generalized) Büchi automata --------*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explicit generalized Büchi automata over a dense symbol alphabet, as in
/// Section 2 of the paper. A GBA carries up to 64 acceptance conditions,
/// stored as a per-state bitmask; a plain BA is the k = 1 case. The
/// analysis keeps the remaining-paths automaton generalized because GBA
/// products are smaller and intersect more cheaply than degeneralized BAs
/// (the paper's footnote at the start of Section 4).
///
/// Every engine in the refinement loop funnels through per-(state, symbol)
/// successor queries, so transitions are indexed by a compressed-sparse-row
/// table keyed by (state, symbol). The index is built lazily on first
/// query and invalidated by mutation.
///
/// Storage is flat: no container per state. The compacted rows live in one
/// `Arcs` array, row S at `Arcs[RowStart[S] .. RowStart[S+1])`, deduplicated
/// in first-insertion order. `addTransition` is a plain append to a pending
/// log of (From, Arc), and `addState` only grows the flat acceptance array.
/// The first read after a mutation compacts the whole log into the rows: a
/// stable counting sort by source appends each state's pending arcs after
/// its row, and the rows that received arcs then drop repeated arcs,
/// keeping the first occurrence. Order and dedup are those of an eager
/// first-occurrence dedup in addTransition, so construction-order
/// determinism does not depend on when reads happen. Because every read
/// compacts everything, only the first read after a mutation moves the
/// rows: a row span handed out by arcsFrom stays valid until the automaton
/// is next mutated. A loop that reads the automaton it appends to
/// therefore compacts once per round; collect the arcs first and append
/// them after the reads.
///
/// The lazily rebuilt rows and index make the const accessors
/// non-reentrant for a *first* query from two threads at once; call
/// ensureIndex() before sharing a const Buchi across threads (nothing in
/// the tree shares one today).
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_AUTOMATA_BUCHI_H
#define TERMCHECK_AUTOMATA_BUCHI_H

#include "automata/StateSet.h"

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace termcheck {

/// An explicit GBA with bitmask acceptance.
class Buchi {
public:
  /// One labeled transition out of a state.
  struct Arc {
    Symbol Sym;
    State To;
    bool operator==(const Arc &O) const {
      return Sym == O.Sym && To == O.To;
    }
  };

  /// Creates an automaton over \p NumSymbols symbols with \p NumConditions
  /// acceptance conditions (1..64).
  explicit Buchi(uint32_t NumSymbols, uint32_t NumConditions = 1)
      : Symbols(NumSymbols), Conditions(NumConditions) {
    assert(NumConditions >= 1 && NumConditions <= 64 &&
           "acceptance conditions must fit a 64-bit mask");
  }

  uint32_t numSymbols() const { return Symbols; }
  uint32_t numConditions() const { return Conditions; }
  uint32_t numStates() const {
    return static_cast<uint32_t>(AcceptMask.size());
  }

  size_t numTransitions() const {
    compact();
    return Arcs.size();
  }

  /// Bitmask with one bit per acceptance condition.
  uint64_t fullMask() const {
    return Conditions == 64 ? ~0ULL : ((1ULL << Conditions) - 1);
  }

  State addState() {
    AcceptMask.push_back(0);
    IndexValid = false; // the CSR row table is sized by numStates
    return numStates() - 1;
  }

  /// Adds \p N fresh states, returning the first id.
  State addStates(uint32_t N) {
    State First = numStates();
    AcceptMask.resize(First + N, 0);
    IndexValid = false;
    return First;
  }

  void addInitial(State S) {
    assert(S < numStates() && "unknown state");
    Initial.insert(S);
  }

  const StateSet &initials() const { return Initial; }

  /// Marks \p S accepting for condition \p Cond.
  void setAccepting(State S, uint32_t Cond = 0) {
    assert(S < numStates() && Cond < Conditions && "out of range");
    AcceptMask[S] |= 1ULL << Cond;
  }

  void setAcceptMask(State S, uint64_t Mask) {
    assert(S < numStates() && (Mask & ~fullMask()) == 0 && "bad mask");
    AcceptMask[S] = Mask;
  }

  uint64_t acceptMask(State S) const {
    assert(S < numStates() && "unknown state");
    return AcceptMask[S];
  }

  /// \returns true when \p S is in every acceptance set.
  bool isAcceptingAll(State S) const { return acceptMask(S) == fullMask(); }

  /// Adds the transition. O(1): an append to the pending log; duplicates
  /// are dropped (first occurrence wins) when the rows are next compacted.
  void addTransition(State From, Symbol Sym, State To) {
    assert(From < numStates() && To < numStates() && Sym < Symbols &&
           "transition out of range");
    Log.push_back({From, {Sym, To}});
    IndexValid = false;
  }

  /// The deduplicated out-arcs of \p S in first-insertion order. Compacts
  /// the pending log first; the span is valid until the automaton is next
  /// mutated.
  std::span<const Arc> arcsFrom(State S) const {
    assert(S < numStates() && "unknown state");
    compact();
    if (S + 1 >= RowStart.size())
      return {}; // added after the last compaction, and no arcs since
    return {Arcs.data() + RowStart[S], Arcs.data() + RowStart[S + 1]};
  }

  /// Half-open range of the \p Sym-successors of \p S, in first-insertion
  /// order. Valid until the next mutation.
  std::pair<const State *, const State *> successorsSpan(State S,
                                                         Symbol Sym) const {
    assert(S < numStates() && Sym < Symbols && "query out of range");
    ensureIndex();
    size_t Row = static_cast<size_t>(S) * Symbols + Sym;
    const State *Base = Csr.Targets.data();
    return {Base + Csr.Row[Row], Base + Csr.Row[Row + 1]};
  }

  /// Calls \p Fn(State) for every \p Sym-successor of \p S. Allocation-free.
  template <typename Fn>
  void forEachSuccessor(State S, Symbol Sym, Fn &&F) const {
    auto [B, E] = successorsSpan(S, Sym);
    for (; B != E; ++B)
      F(*B);
  }

  /// Appends the \p Sym-successors of \p S to \p Out. Allocation-free when
  /// \p Out has capacity.
  void successorsInto(State S, Symbol Sym, std::vector<State> &Out) const {
    auto [B, E] = successorsSpan(S, Sym);
    Out.insert(Out.end(), B, E);
  }

  /// All \p Sym-successors of \p S (allocating; prefer successorsSpan /
  /// forEachSuccessor / successorsInto on hot paths).
  std::vector<State> successors(State S, Symbol Sym) const {
    auto [B, E] = successorsSpan(S, Sym);
    return std::vector<State>(B, E);
  }

  /// All successors of \p S over any symbol (the paper's post(q)).
  StateSet post(State S) const {
    // Collect then normalize once: repeated sorted insertion is O(d^2) for
    // high-out-degree states.
    std::span<const Arc> Row = arcsFrom(S);
    std::vector<State> Out;
    Out.reserve(Row.size());
    for (const Arc &A : Row)
      Out.push_back(A.To);
    return StateSet(std::move(Out));
  }

  /// Folds the pending log into the rows now. Reads do this on demand;
  /// builders call it so that the work lands in the construction and the
  /// returned automaton's reads move nothing. The common "nothing pending"
  /// case stays inline: reads sit in fixpoint loops.
  void compact() const {
    if (!Log.empty())
      compactSlow();
  }

  /// Builds the (state, symbol) CSR successor index now if it is stale.
  /// Queries call this implicitly; call it explicitly before sharing a
  /// const Buchi across threads.
  void ensureIndex() const {
    if (!IndexValid)
      buildIndex();
  }

  /// \returns true when every state has a successor on every symbol.
  bool isComplete() const;

  /// \returns true when there is at most one initial state and at most one
  /// successor per state and symbol.
  bool isDeterministic() const;

  /// States reachable from the initial states.
  StateSet reachableStates() const;

  /// Multi-line dump for debugging.
  std::string str() const;

private:
  /// One logged addTransition, not yet compacted into the rows.
  struct PendingArc {
    State From;
    Arc A;
  };

  uint32_t Symbols;
  uint32_t Conditions;
  std::vector<uint64_t> AcceptMask;
  StateSet Initial;

  // Mutable: compaction and the CSR are lazy caches refreshed from const
  // accessors.
  /// The compacted rows, deduplicated, in first-insertion order. RowStart
  /// has one entry per state known at the last compaction, plus one.
  mutable std::vector<Arc> Arcs;
  mutable std::vector<uint32_t> RowStart;
  /// Arcs added since the last compaction, in insertion order.
  mutable std::vector<PendingArc> Log;

  /// CSR over (state, symbol): row r = S * Symbols + Sym holds the targets
  /// Targets[Row[r] .. Row[r+1]) in first-insertion order.
  struct CsrIndex {
    std::vector<uint32_t> Row;
    std::vector<State> Targets;
  };
  mutable CsrIndex Csr;
  mutable bool IndexValid = false;

  void compactSlow() const;

  void buildIndex() const;
};

} // namespace termcheck

#endif // TERMCHECK_AUTOMATA_BUCHI_H
