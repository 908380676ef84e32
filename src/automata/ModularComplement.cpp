//===- automata/ModularComplement.cpp - Co-reach-cut complement ----------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "automata/ModularComplement.h"

#include "automata/DbaComplement.h"
#include "automata/FiniteTraceComplement.h"
#include "automata/Ops.h"
#include "automata/Scc.h"

using namespace termcheck;

namespace {

/// \returns per state whether it lies in an accepting SCC: a reachable,
/// nontrivial SCC (some internal arc, so a run can stay forever) holding
/// an accepting state.
std::vector<uint8_t> acceptingSccStates(const Buchi &A,
                                        const SccDecomposition &D) {
  std::vector<uint8_t> Nontrivial(D.NumComps, 0), Accepting(D.NumComps, 0);
  for (State S = 0; S < A.numStates(); ++S) {
    const int32_t C = D.CompOf[S];
    if (C < 0)
      continue;
    Accepting[C] |= A.acceptMask(S) != 0;
    for (const Buchi::Arc &Arc : A.arcsFrom(S))
      Nontrivial[C] |= D.CompOf[Arc.To] == C;
  }
  std::vector<uint8_t> Out(A.numStates(), 0);
  for (State S = 0; S < A.numStates(); ++S) {
    const int32_t C = D.CompOf[S];
    Out[S] = C >= 0 && Nontrivial[C] && Accepting[C];
  }
  return Out;
}

/// \returns true when every accepting SCC is inert-weak: closed (no arc
/// leaves it), internally complete (a successor on every symbol), and
/// without a cycle through non-accepting states. A run entering such an
/// SCC accepts whatever the suffix, so its trapped language is
/// Pref . Sigma^omega.
bool allInertWeak(const Buchi &A, const SccDecomposition &D,
                  const std::vector<uint8_t> &InScc) {
  const State N = A.numStates();
  constexpr State NoState = ~State(0);
  std::vector<State> SeenFrom(A.numSymbols(), NoState);
  for (State S = 0; S < N; ++S) {
    if (!InScc[S])
      continue;
    uint32_t Symbols = 0;
    for (const Buchi::Arc &Arc : A.arcsFrom(S)) {
      if (D.CompOf[Arc.To] != D.CompOf[S])
        return false; // not closed
      if (SeenFrom[Arc.Sym] != S) {
        SeenFrom[Arc.Sym] = S;
        ++Symbols;
      }
    }
    if (Symbols != A.numSymbols())
      return false; // not complete
  }

  // Kahn's algorithm over the non-accepting SCC states: every one of them
  // peels off iff none lies on a cycle. Closedness keeps each arc inside
  // its SCC, so no cycle spans two SCCs.
  auto Rejecting = [&](State S) { return InScc[S] && A.acceptMask(S) == 0; };
  std::vector<uint32_t> InDegree(N, 0);
  size_t Left = 0;
  for (State S = 0; S < N; ++S)
    if (Rejecting(S)) {
      ++Left;
      for (const Buchi::Arc &Arc : A.arcsFrom(S))
        InDegree[Arc.To] += Rejecting(Arc.To);
    }
  std::vector<State> Work;
  for (State S = 0; S < N; ++S)
    if (Rejecting(S) && InDegree[S] == 0)
      Work.push_back(S);
  while (!Work.empty()) {
    State S = Work.back();
    Work.pop_back();
    --Left;
    for (const Buchi::Arc &Arc : A.arcsFrom(S))
      if (Rejecting(Arc.To) && --InDegree[Arc.To] == 0)
        Work.push_back(Arc.To);
  }
  return Left == 0;
}

} // namespace

std::unique_ptr<ModularComplement>
termcheck::buildModularComplement(const Buchi &A, NcsbVariant Ncsb) {
  if (A.numConditions() != 1)
    return nullptr;
  const State N = A.numStates();
  const SccDecomposition D = sccDecompose(A);
  const std::vector<uint8_t> InScc = acceptingSccStates(A, D);

  // The cut: states from which an accepting state of an accepting SCC is
  // still reachable. A run leaving the cut can never again be trapped in
  // an accepting SCC, so dropping those states preserves the language.
  std::vector<std::vector<State>> Preds(N);
  for (State S = 0; S < N; ++S)
    for (const Buchi::Arc &Arc : A.arcsFrom(S))
      Preds[Arc.To].push_back(S);
  std::vector<uint8_t> IsTarget(N, 0), InCut(N, 0);
  std::vector<State> Work;
  for (State S = 0; S < N; ++S)
    if (InScc[S] && A.acceptMask(S) != 0) {
      IsTarget[S] = InCut[S] = 1;
      Work.push_back(S);
    }
  while (!Work.empty()) {
    State S = Work.back();
    Work.pop_back();
    for (State P : Preds[S])
      if (!InCut[P]) {
        InCut[P] = 1;
        Work.push_back(P);
      }
  }

  // Restrict A to the cut in original id order, with acceptance narrowed
  // to the targets. Inert-weak SCCs collapse into one universal accepting
  // state, numbered first: the finite-trace shape.
  const bool Collapse = allInertWeak(A, D, InScc);
  auto C = std::make_unique<ModularComplement>(Buchi(A.numSymbols(), 1));
  Buchi &Cut = C->Cut;
  constexpr State NoState = ~State(0);
  State Universal = NoState;
  if (Collapse) {
    Universal = Cut.addState();
    Cut.setAccepting(Universal);
    for (Symbol Sym = 0; Sym < A.numSymbols(); ++Sym)
      Cut.addTransition(Universal, Sym, Universal);
  }
  std::vector<State> Map(N, NoState);
  for (State S = 0; S < N; ++S)
    if (InCut[S])
      Map[S] = Collapse && InScc[S] ? Universal : Cut.addState();
  for (State S = 0; S < N; ++S) {
    if (!InCut[S] || Map[S] == Universal)
      continue;
    if (IsTarget[S])
      Cut.setAccepting(Map[S]);
    for (const Buchi::Arc &Arc : A.arcsFrom(S))
      if (InCut[Arc.To])
        Cut.addTransition(Map[S], Arc.Sym, Map[Arc.To]);
  }
  for (State I : A.initials().elems())
    if (InCut[I])
      Cut.addInitial(Map[I]);

  if (Collapse) {
    C->Oracle = std::make_unique<FiniteTraceComplementOracle>(Cut, Universal);
    return C;
  }
  Buchi Complete = completeWithSink(Cut);
  if (Complete.isDeterministic()) {
    Cut = std::move(Complete);
    C->Oracle = std::make_unique<DbaComplementOracle>(Cut);
  } else if ((C->Prepared = prepareSdba(Cut))) {
    C->Oracle = std::make_unique<NcsbOracle>(*C->Prepared, Ncsb);
  } else {
    return nullptr;
  }
  return C;
}
