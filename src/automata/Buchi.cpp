//===- automata/Buchi.cpp - (Generalized) Büchi automata -----------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "automata/Buchi.h"

#include "automata/PerfCounters.h"

#include <algorithm>
#include <deque>

using namespace termcheck;

namespace {

/// Writes the first occurrence of every arc of [Begin, End) to \p Out, in
/// order, and \returns the new end. \p Out may alias the row as long as it
/// does not lie after \p Begin: survivors only ever move left.
Buchi::Arc *dedupRow(Buchi::Arc *Begin, Buchi::Arc *End, Buchi::Arc *Out,
                     std::vector<uint64_t> &Seen) {
  const size_t Len = static_cast<size_t>(End - Begin);
  if (Len < 2) { // nothing to drop
    if (Len == 1)
      *Out = *Begin;
    return Out + Len;
  }
  // An open-addressing set of the row's (Sym, To) keys, at most half full.
  // No arc has the symbol ~0, so the all-ones key marks an empty slot.
  constexpr uint64_t Empty = ~uint64_t(0);
  unsigned Bits = 2;
  while ((size_t(1) << Bits) < 2 * Len)
    ++Bits;
  Seen.assign(size_t(1) << Bits, Empty);
  const size_t Mask = Seen.size() - 1;
  Buchi::Arc *Kept = Out;
  for (Buchi::Arc *It = Begin; It != End; ++It) {
    const uint64_t Key = (static_cast<uint64_t>(It->Sym) << 32) | It->To;
    size_t Idx = (Key * 0x9e3779b97f4a7c15ULL) >> (64 - Bits);
    while (Seen[Idx] != Empty && Seen[Idx] != Key)
      Idx = (Idx + 1) & Mask;
    if (Seen[Idx] == Key)
      continue; // a repeat: the first occurrence is already kept
    Seen[Idx] = Key;
    *Kept++ = *It;
  }
  return Kept;
}

} // namespace

void Buchi::compactSlow() const {
  const State N = numStates();
  const State OldRows =
      RowStart.empty() ? 0 : static_cast<State>(RowStart.size() - 1);
  auto OldLen = [&](State S) -> uint32_t {
    return S < OldRows ? RowStart[S + 1] - RowStart[S] : 0;
  };
  assert(Arcs.size() + Log.size() < UINT32_MAX && "arc offsets are 32-bit");

  // Merged layout: row S is its compacted row followed by its pending arcs.
  std::vector<uint32_t> Pending(N, 0);
  for (const PendingArc &P : Log)
    ++Pending[P.From];
  std::vector<uint32_t> Start(N + 1);
  uint32_t Total = 0;
  for (State S = 0; S < N; ++S) {
    Start[S] = Total;
    Total += OldLen(S) + Pending[S];
  }
  Start[N] = Total;

  // Rows only grow, so moving the compacted rows to their merged offsets
  // from the last one down never overwrites a row not yet moved.
  Arcs.resize(Total);
  for (State S = OldRows; S-- > 0;)
    if (Start[S] != RowStart[S])
      std::copy_backward(Arcs.begin() + RowStart[S],
                         Arcs.begin() + RowStart[S + 1],
                         Arcs.begin() + Start[S] + OldLen(S));
  // Stable counting sort of the log by source: S's pending arcs fill the
  // tail of its merged row in log order while Pending[S] counts down.
  for (const PendingArc &P : Log)
    Arcs[Start[P.From + 1] - Pending[P.From]--] = P.A;
  std::vector<PendingArc>().swap(Log);

  // Dedup the rows that received arcs and close the gaps. The write cursor
  // never passes the row being read, so this works in place.
  std::vector<uint64_t> Seen;
  Arc *Base = Arcs.data();
  Arc *Write = Base;
  uint32_t Begin = Start[0];
  for (State S = 0; S < N; ++S) {
    uint32_t End = Start[S + 1];
    Start[S] = static_cast<uint32_t>(Write - Base);
    if (End - Begin != OldLen(S))
      Write = dedupRow(Base + Begin, Base + End, Write, Seen);
    else if (Write != Base + Begin)
      Write = std::copy(Base + Begin, Base + End, Write);
    else
      Write += End - Begin;
    Begin = End;
  }
  Start[N] = static_cast<uint32_t>(Write - Base);
  Arcs.resize(Start[N]);
  RowStart = std::move(Start);
}

void Buchi::buildIndex() const {
  compact();
  const size_t Rows = static_cast<size_t>(numStates()) * Symbols;
  Csr.Row.assign(Rows + 1, 0);
  for (State S = 0; S < numStates(); ++S)
    for (const Arc &A : arcsFrom(S))
      ++Csr.Row[static_cast<size_t>(S) * Symbols + A.Sym + 1];
  for (size_t R = 0; R < Rows; ++R)
    Csr.Row[R + 1] += Csr.Row[R];
  Csr.Targets.resize(Arcs.size());
  // Stable counting sort: a scratch cursor per row; scanning each state's
  // arcs in insertion order keeps every (state, symbol) row in
  // first-insertion order, so span queries replay exactly what the old
  // linear filter produced.
  std::vector<uint32_t> Cursor(Csr.Row.begin(), Csr.Row.end() - 1);
  for (State S = 0; S < numStates(); ++S)
    for (const Arc &A : arcsFrom(S))
      Csr.Targets[Cursor[static_cast<size_t>(S) * Symbols + A.Sym]++] = A.To;
  IndexValid = true;
  ++perf::local().CsrRebuilds;
}

bool Buchi::isComplete() const {
  ensureIndex();
  const size_t Rows = static_cast<size_t>(numStates()) * Symbols;
  for (size_t R = 0; R < Rows; ++R)
    if (Csr.Row[R] == Csr.Row[R + 1])
      return false;
  return true;
}

bool Buchi::isDeterministic() const {
  if (Initial.size() > 1)
    return false;
  ensureIndex();
  const size_t Rows = static_cast<size_t>(numStates()) * Symbols;
  for (size_t R = 0; R < Rows; ++R)
    if (Csr.Row[R + 1] - Csr.Row[R] > 1)
      return false;
  return true;
}

StateSet Buchi::reachableStates() const {
  compact();
  std::vector<bool> Seen(numStates(), false);
  std::deque<State> Work;
  for (State S : Initial.elems()) {
    Seen[S] = true;
    Work.push_back(S);
  }
  std::vector<State> Out;
  while (!Work.empty()) {
    State S = Work.front();
    Work.pop_front();
    Out.push_back(S);
    for (const Arc &A : arcsFrom(S)) {
      if (!Seen[A.To]) {
        Seen[A.To] = true;
        Work.push_back(A.To);
      }
    }
  }
  return StateSet(std::move(Out));
}

std::string Buchi::str() const {
  compact();
  std::string S = "GBA: " + std::to_string(numStates()) + " states, " +
                  std::to_string(Symbols) + " symbols, " +
                  std::to_string(Conditions) + " conditions\n";
  S += "  initial: " + Initial.str() + "\n";
  for (State Q = 0; Q < numStates(); ++Q) {
    S += "  q" + std::to_string(Q);
    if (AcceptMask[Q] != 0)
      S += " [acc mask " + std::to_string(AcceptMask[Q]) + "]";
    S += ":";
    for (const Arc &A : arcsFrom(Q))
      S += " (" + std::to_string(A.Sym) + "->q" + std::to_string(A.To) + ")";
    S += "\n";
  }
  return S;
}
