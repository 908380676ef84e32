//===- tests/NaiveEmptiness.h - Reference emptiness oracle ----*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately naive GBA emptiness check, the independent oracle of the
/// differential tests. It shares no code with automata/Scc.cpp: one BFS per
/// reachable state computes what that state reaches in one or more steps,
/// and the language is nonempty iff some reachable state s reaches itself
/// and the states mutually reachable with s together carry every
/// acceptance condition. Quadratic in the automaton, so keep inputs small.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_TESTS_NAIVEEMPTINESS_H
#define TERMCHECK_TESTS_NAIVEEMPTINESS_H

#include "automata/Buchi.h"

#include <deque>
#include <vector>

namespace termcheck {

/// BFS over \p A from \p Roots; \returns the visited set (roots included).
inline std::vector<bool> naiveBfs(const Buchi &A,
                                  const std::vector<State> &Roots) {
  std::vector<bool> Seen(A.numStates(), false);
  std::deque<State> Work;
  for (State S : Roots)
    if (!Seen[S]) {
      Seen[S] = true;
      Work.push_back(S);
    }
  while (!Work.empty()) {
    State S = Work.front();
    Work.pop_front();
    for (const Buchi::Arc &Arc : A.arcsFrom(S))
      if (!Seen[Arc.To]) {
        Seen[Arc.To] = true;
        Work.push_back(Arc.To);
      }
  }
  return Seen;
}

/// \returns true iff L(A) is empty.
inline bool naiveIsEmpty(const Buchi &A) {
  const uint32_t N = A.numStates();
  const std::vector<bool> Reachable = naiveBfs(A, A.initials().elems());
  // Reach[S][T]: T is reachable from S in one or more steps. Only rows of
  // reachable states are filled; everything S reaches is reachable too.
  std::vector<std::vector<bool>> Reach(N);
  for (State S = 0; S < N; ++S) {
    if (!Reachable[S])
      continue;
    std::vector<State> Succ;
    for (const Buchi::Arc &Arc : A.arcsFrom(S))
      Succ.push_back(Arc.To);
    Reach[S] = naiveBfs(A, Succ);
  }
  const uint64_t Full = A.fullMask();
  for (State S = 0; S < N; ++S) {
    if (!Reachable[S] || !Reach[S][S])
      continue;
    uint64_t Mask = 0;
    for (State T = 0; T < N; ++T)
      if (Reach[S][T] && Reach[T][S])
        Mask |= A.acceptMask(T);
    if ((Mask & Full) == Full)
      return false;
  }
  return true;
}

} // namespace termcheck

#endif // TERMCHECK_TESTS_NAIVEEMPTINESS_H
