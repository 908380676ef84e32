//===- automata/Scc.cpp - SCC-based emptiness and Algorithm 1 ------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "automata/Scc.h"

#include "automata/Interner.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace termcheck;

//===----------------------------------------------------------------------===//
// Algorithm 1 (iterative)
//===----------------------------------------------------------------------===//

namespace {

/// Shared successor storage for DFS over a GbaSource. Sources append
/// successors into a caller-provided buffer, so each frame is a slice
/// [Begin, End) of one arena vector with a cursor; pop() truncates the
/// arena back, so the arena's high-water mark is the successor count of the
/// deepest DFS path, not of the whole exploration.
///
/// Arc references returned by next() are invalidated by the next push()
/// (the arena may reallocate); callers copy the arc by value.
class ArcArena {
public:
  struct Frame {
    State S;
    size_t Begin; ///< first arc of the slice (arena index)
    size_t Idx;   ///< cursor (arena index), Begin <= Idx <= End
    size_t End;   ///< one past the last arc of the slice
  };

  /// Appends S's successors to the arena and returns the new frame.
  Frame push(GbaSource &Src, State S) {
    size_t Begin = Arena.size();
    Src.arcs(S, Arena);
    return {S, Begin, Begin, Arena.size()};
  }

  /// Reclaims the top frame's slice. Frames MUST be popped LIFO.
  void pop(const Frame &F) {
    assert(Arena.size() == F.End && "arena frames must be popped LIFO");
    Arena.resize(F.Begin);
  }

  bool done(const Frame &F) const { return F.Idx == F.End; }
  /// Precondition: !done(F). Advances F's cursor. The reference dies at the
  /// next push(); copy the arc.
  const Buchi::Arc &next(Frame &F) { return Arena[F.Idx++]; }

private:
  std::vector<Buchi::Arc> Arena;
};

/// DFS frame of the iterative construct() of Algorithm 1: the shared
/// arena slice plus Algorithm 1's nonemptiness flag.
struct Frame {
  ArcArena::Frame F;
  bool IsNemp = false;
};

/// Entry of the SCCs stack: a potential SCC root with the acceptance
/// conditions its candidate component covers so far.
struct SccEntry {
  State Root;
  uint32_t DfsNum;
  uint64_t Mask;
};

} // namespace

RemoveUselessResult UselessStateRemover::run(GbaSource &Src) {
  RemoveUselessResult Result;
  const uint64_t Full = Src.fullMask();

  // Sources hand out dense ids (GbaSource contract), so every per-state set
  // is a flat vector grown on first touch -- the hash sets this replaces
  // dominated the profile of the difference engine's emptiness checks.
  std::vector<uint32_t> DfsNum; // 0 = unvisited (Cnt starts at 1)
  std::vector<uint8_t> Useful, EmpFallback, OnAct;
  auto Touch = [](auto &V, State S) -> decltype(V[0]) & {
    if (S >= V.size())
      V.resize(S + 1, 0);
    return V[S];
  };
  auto InSet = [](const auto &V, State S) {
    return S < V.size() && V[S] != 0;
  };
  std::vector<State> Act;
  std::vector<SccEntry> SCCs;
  ArcArena Arena;
  std::vector<Frame> Frames;
  uint32_t Cnt = 0;

  auto KnownUseless = [&](State Q) {
    if (IsKnownUseless)
      return IsKnownUseless(Q);
    return InSet(EmpFallback, Q);
  };
  auto MarkUseless = [&](State Q) {
    if (AddUseless)
      AddUseless(Q);
    else
      Touch(EmpFallback, Q) = 1;
  };

  auto enter = [&](State S) {
    Touch(DfsNum, S) = ++Cnt;
    SCCs.push_back({S, Cnt, Src.acceptMask(S)});
    Act.push_back(S);
    Touch(OnAct, S) = 1;
    Frames.push_back(Frame{Arena.push(Src, S), false});
    ++Result.StatesExplored;
  };

  bool FoundAccepting = false;
  const uint32_t Stride = PollStride == 0 ? 1 : PollStride;
  uint32_t AbortPollCountdown = Stride;
  auto PollAbort = [&]() {
    if (!ShouldAbort)
      return false;
    if (--AbortPollCountdown != 0)
      return false;
    AbortPollCountdown = Stride;
    return ShouldAbort();
  };

  for (State QI : Src.initialStates()) {
    if (InSet(Useful, QI)) {
      Result.LanguageEmpty = false;
      continue;
    }
    if (KnownUseless(QI) || InSet(DfsNum, QI))
      continue;
    enter(QI);

    while (!Frames.empty()) {
      if (PollAbort()) {
        Result.Aborted = true;
        return Result;
      }
      Frame &F = Frames.back();
      if (!Arena.done(F.F)) {
        State T = Arena.next(F.F).To;
        if (InSet(Useful, T)) {
          F.IsNemp = true;
          continue;
        }
        if (KnownUseless(T))
          continue;
        if (!InSet(DfsNum, T)) {
          enter(T);
          continue;
        }
        if (!InSet(OnAct, T))
          continue; // fully explored and classified elsewhere
        // T closes a cycle: merge the SCC candidates younger than T.
        uint32_t TNum = DfsNum[T];
        uint64_t Mask = 0;
        SccEntry Last{};
        do {
          assert(!SCCs.empty() && "SCC stack underflow");
          Last = SCCs.back();
          SCCs.pop_back();
          Mask |= Last.Mask;
        } while (Last.DfsNum > TNum);
        if (Mask == Full)
          F.IsNemp = true;
        SCCs.push_back({Last.Root, Last.DfsNum, Mask});
        if (F.IsNemp && StopAtFirstAccepting) {
          FoundAccepting = true;
          break;
        }
        continue;
      }
      // Leaving F.S: pop its SCC if F.S is the current candidate root.
      bool ChildNemp = F.IsNemp;
      const State Leaving = F.F.S;
      if (!SCCs.empty() && SCCs.back().Root == Leaving) {
        // A singleton state with a self-loop covering all conditions also
        // forms an accepting SCC; that case was handled by the merge above
        // (the self-loop closes a cycle on F.S itself).
        SCCs.pop_back();
        State U;
        do {
          assert(!Act.empty() && "act stack underflow");
          U = Act.back();
          Act.pop_back();
          OnAct[U] = 0;
          if (F.IsNemp) {
            Touch(Useful, U) = 1;
            Result.Useful.push_back(U);
          } else {
            MarkUseless(U);
          }
        } while (U != Leaving);
      }
      Arena.pop(Frames.back().F);
      Frames.pop_back();
      if (!Frames.empty())
        Frames.back().IsNemp |= ChildNemp;
    }

    if (FoundAccepting) {
      Result.LanguageEmpty = false;
      return Result;
    }
    if (InSet(Useful, QI))
      Result.LanguageEmpty = false;
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Explicit-automaton helpers
//===----------------------------------------------------------------------===//

bool termcheck::isEmpty(const Buchi &A) {
  ExplicitGbaSource Src(A);
  UselessStateRemover R;
  R.StopAtFirstAccepting = true;
  return R.run(Src).LanguageEmpty;
}

std::string LassoWord::str() const {
  std::string S = "u=[";
  for (size_t I = 0; I < Stem.size(); ++I)
    S += (I ? " " : "") + std::to_string(Stem[I]);
  S += "] v=[";
  for (size_t I = 0; I < Loop.size(); ++I)
    S += (I ? " " : "") + std::to_string(Loop[I]);
  return S + "]";
}

namespace {

/// DFS frame over an explicit automaton: the state plus a cursor into its
/// arc row. The row span stays valid while the automaton is not mutated,
/// which the Tarjan search below guarantees, so it is cached once at push
/// and the frame stack never allocates once its capacity is warm.
struct ExplicitArcFrame {
  State S;
  const Buchi::Arc *Cur;
  const Buchi::Arc *End;

  ExplicitArcFrame(const Buchi &A, State S) : S(S) {
    std::span<const Buchi::Arc> Row = A.arcsFrom(S);
    Cur = Row.data();
    End = Cur + Row.size();
  }

  bool done() const { return Cur == End; }
  /// Precondition: !done(). Advances the cursor.
  const Buchi::Arc &next() { return *Cur++; }
};

} // namespace

SccDecomposition termcheck::sccDecompose(const Buchi &A) {
  const uint32_t N = A.numStates();
  SccDecomposition D;
  D.CompOf.assign(N, -1);
  std::vector<uint32_t> Index(N, UINT32_MAX), Low(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<State> Stack;
  uint32_t Next = 0;

  std::vector<ExplicitArcFrame> Frames;

  for (State Root : A.initials().elems()) {
    if (Index[Root] != UINT32_MAX)
      continue;
    Frames.push_back({A, Root});
    Index[Root] = Low[Root] = Next++;
    Stack.push_back(Root);
    OnStack[Root] = true;
    while (!Frames.empty()) {
      ExplicitArcFrame &F = Frames.back();
      if (!F.done()) {
        State T = F.next().To;
        if (Index[T] == UINT32_MAX) {
          Index[T] = Low[T] = Next++;
          Stack.push_back(T);
          OnStack[T] = true;
          Frames.push_back({A, T});
        } else if (OnStack[T]) {
          if (Index[T] < Low[F.S])
            Low[F.S] = Index[T];
        }
        continue;
      }
      State S = F.S;
      Frames.pop_back();
      if (!Frames.empty() && Low[S] < Low[Frames.back().S])
        Low[Frames.back().S] = Low[S];
      if (Low[S] == Index[S]) {
        uint32_t Comp = D.NumComps++;
        State U;
        do {
          U = Stack.back();
          Stack.pop_back();
          OnStack[U] = false;
          D.CompOf[U] = static_cast<int32_t>(Comp);
        } while (U != S);
      }
    }
  }
  return D;
}

namespace {

/// BFS over the whole automaton from the initial states; fills predecessor
/// arcs so paths can be reconstructed.
struct BfsTree {
  std::vector<int64_t> PredState;  // -1 for roots/unreached
  std::vector<Symbol> PredSym;
  std::vector<bool> Reached;
  std::vector<State> Order;
};

BfsTree bfsFromInitials(const Buchi &A) {
  BfsTree T;
  T.PredState.assign(A.numStates(), -1);
  T.PredSym.assign(A.numStates(), 0);
  T.Reached.assign(A.numStates(), false);
  std::deque<State> Work;
  for (State S : A.initials().elems()) {
    T.Reached[S] = true;
    Work.push_back(S);
  }
  while (!Work.empty()) {
    State S = Work.front();
    Work.pop_front();
    T.Order.push_back(S);
    for (const Buchi::Arc &Arc : A.arcsFrom(S)) {
      if (T.Reached[Arc.To])
        continue;
      T.Reached[Arc.To] = true;
      T.PredState[Arc.To] = S;
      T.PredSym[Arc.To] = Arc.Sym;
      Work.push_back(Arc.To);
    }
  }
  return T;
}

/// BFS restricted to one SCC; \returns the symbol path from \p From to the
/// first state satisfying \p Goal, or std::nullopt.
std::optional<std::pair<std::vector<Symbol>, State>>
bfsWithinScc(const Buchi &A, const SccDecomposition &D, int32_t Comp,
             State From, const std::function<bool(State)> &Goal) {
  // States are dense, so predecessor/visited tracking is two flat vectors
  // rather than hash maps keyed by state.
  std::vector<std::pair<State, Symbol>> Pred(A.numStates());
  std::vector<bool> Seen(A.numStates(), false);
  std::deque<State> Work{From};
  Seen[From] = true;
  auto Reconstruct = [&](State Target) {
    std::vector<Symbol> Path;
    State Cur = Target;
    while (Cur != From) {
      auto [P, Sym] = Pred[Cur];
      Path.push_back(Sym);
      Cur = P;
    }
    std::reverse(Path.begin(), Path.end());
    return Path;
  };
  if (Goal(From))
    return std::make_pair(std::vector<Symbol>{}, From);
  while (!Work.empty()) {
    State S = Work.front();
    Work.pop_front();
    for (const Buchi::Arc &Arc : A.arcsFrom(S)) {
      if (D.CompOf[Arc.To] != Comp || Seen[Arc.To])
        continue;
      Seen[Arc.To] = true;
      Pred[Arc.To] = {S, Arc.Sym};
      if (Goal(Arc.To))
        return std::make_pair(Reconstruct(Arc.To), Arc.To);
      Work.push_back(Arc.To);
    }
  }
  return std::nullopt;
}

} // namespace

std::optional<LassoWord> termcheck::findAcceptingLasso(const Buchi &A) {
  SccDecomposition D = sccDecompose(A);
  BfsTree T = bfsFromInitials(A);

  // Classify components: nontrivial (has an internal arc) and covering all
  // acceptance conditions.
  std::vector<uint64_t> CompMask(D.NumComps, 0);
  std::vector<bool> CompNontrivial(D.NumComps, false);
  for (State S = 0; S < A.numStates(); ++S) {
    if (D.CompOf[S] < 0)
      continue;
    uint32_t C = static_cast<uint32_t>(D.CompOf[S]);
    CompMask[C] |= A.acceptMask(S);
    for (const Buchi::Arc &Arc : A.arcsFrom(S))
      if (D.CompOf[Arc.To] == D.CompOf[S])
        CompNontrivial[C] = true;
  }
  const uint64_t Full = A.fullMask();

  // The BFS order yields the accepting component with the shortest stem.
  State Target = 0;
  bool FoundTarget = false;
  for (State S : T.Order) {
    int32_t C = D.CompOf[S];
    if (C < 0)
      continue;
    if (CompNontrivial[C] && CompMask[C] == Full) {
      Target = S;
      FoundTarget = true;
      break;
    }
  }
  if (!FoundTarget)
    return std::nullopt;

  LassoWord W;
  // Reconstruct the stem.
  {
    std::vector<Symbol> Rev;
    State Cur = Target;
    while (T.PredState[Cur] >= 0) {
      Rev.push_back(T.PredSym[Cur]);
      Cur = static_cast<State>(T.PredState[Cur]);
    }
    W.Stem.assign(Rev.rbegin(), Rev.rend());
  }

  // Build the loop: from Target, greedily visit a state of each missing
  // acceptance condition inside the SCC, then close back to Target.
  int32_t Comp = D.CompOf[Target];
  uint64_t Covered = A.acceptMask(Target);
  State Cur = Target;
  for (uint32_t Cond = 0; Cond < A.numConditions(); ++Cond) {
    uint64_t Bit = 1ULL << Cond;
    if (Covered & Bit)
      continue;
    auto Hop = bfsWithinScc(A, D, Comp, Cur,
                            [&](State S) { return (A.acceptMask(S) & Bit) != 0; });
    assert(Hop && "condition state must exist inside the accepting SCC");
    for (Symbol Sym : Hop->first)
      W.Loop.push_back(Sym);
    Cur = Hop->second;
    Covered |= A.acceptMask(Cur);
  }
  if (Cur == Target && W.Loop.empty()) {
    // Force at least one step before closing the cycle.
    for (const Buchi::Arc &Arc : A.arcsFrom(Cur)) {
      if (D.CompOf[Arc.To] == Comp) {
        W.Loop.push_back(Arc.Sym);
        Cur = Arc.To;
        break;
      }
    }
  }
  if (Cur != Target) {
    auto Back = bfsWithinScc(A, D, Comp, Cur,
                             [&](State S) { return S == Target; });
    assert(Back && "SCC must be strongly connected");
    for (Symbol Sym : Back->first)
      W.Loop.push_back(Sym);
  }
  assert(!W.Loop.empty() && "accepting lasso needs a nonempty loop");
  return W;
}

bool termcheck::acceptsLasso(const Buchi &A, const LassoWord &W) {
  assert(!W.Loop.empty() && "ultimately periodic word needs a loop");
  const uint32_t StemLen = static_cast<uint32_t>(W.Stem.size());
  const uint32_t Total = StemLen + static_cast<uint32_t>(W.Loop.size());
  auto SymbolAt = [&](uint32_t Pos) {
    return Pos < StemLen ? W.Stem[Pos] : W.Loop[Pos - StemLen];
  };
  auto NextPos = [&](uint32_t Pos) {
    return Pos + 1 < Total ? Pos + 1 : StemLen;
  };

  // Product of A with the one-word lasso automaton, over a 1-symbol
  // alphabet (the word fixes all symbols).
  A.ensureIndex(); // every expansion reads exactly one (state, symbol) row
  Buchi P(1, A.numConditions());
  PairInterner Index;
  auto Intern = [&](State Q, uint32_t Pos) {
    auto [Fresh, Inserted] = Index.intern(Q, Pos);
    if (Inserted) {
      State Added = P.addState();
      assert(Added == Fresh && "pair ids must track product states");
      (void)Added;
      P.setAcceptMask(Fresh, A.acceptMask(Q));
    }
    return Fresh;
  };

  std::deque<State> Work;
  for (State Q : A.initials().elems()) {
    State S = Intern(Q, 0);
    P.addInitial(S);
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
    auto [Q, Pos] = Index.get(S);
    Symbol Want = SymbolAt(Pos);
    A.forEachSuccessor(Q, Want, [&](State To) {
      State T = Intern(To, NextPos(Pos));
      P.addTransition(S, 0, T);
      Work.push_back(T);
    });
  }
  return !isEmpty(P);
}
