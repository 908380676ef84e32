//===- termination/Generalize.cpp - Multi-stage generalization -----------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "termination/Generalize.h"

#include "automata/Ops.h"
#include "automata/Sdba.h"

#include <cassert>
#include <deque>
#include <unordered_map>

using namespace termcheck;

Predicate ModuleBuilder::conjoinAll(const CertifiedModule &M0,
                                    const StateSet &Q) const {
  Predicate Out; // empty conjunction = true
  for (State S : Q.elems())
    Out = Predicate::conjoin(Out, M0.Cert[S]);
  return Out;
}

StateSet ModuleBuilder::successorsOf(const CertifiedModule &M0,
                                     const Predicate &Pre, bool FromAccepting,
                                     Symbol Sym) const {
  // The triple's source side is target-independent: compute the post once
  // and only re-check entailment per candidate target state.
  const LinearExpr *Update = FromAccepting ? &M0.Rank : nullptr;
  Predicate Post = hoarePostPredicate(Pre, P.statement(Sym), P, Update);
  StateSet Out;
  for (State Q = 0; Q < M0.A.numStates(); ++Q)
    if (Post.entails(M0.Cert[Q], P.oldrnkVar()))
      Out.insert(Q);
  return Out;
}

//===----------------------------------------------------------------------===//
// Stage 0: the initial certified lasso module (Section 3.1.1)
//===----------------------------------------------------------------------===//

CertifiedModule ModuleBuilder::mergeEqualPredicates(
    const CertifiedModule &M) const {
  // Merge non-accepting states with structurally equal predicates (merging
  // accepting states would change which edges take the oldrnk update, so
  // they are kept apart). Transitions and initial flags are unioned, which
  // only grows the language -- u v^omega stays inside.
  std::vector<State> ClassOf(M.A.numStates());
  std::vector<State> Repr;
  std::vector<Predicate> ReprPred;
  std::vector<bool> ReprAcc;
  for (State Q = 0; Q < M.A.numStates(); ++Q) {
    bool Acc = M.A.acceptMask(Q) != 0;
    State Found = UINT32_MAX;
    if (!Acc) {
      for (size_t I = 0; I < Repr.size(); ++I) {
        if (!ReprAcc[I] && ReprPred[I] == M.Cert[Q]) {
          Found = static_cast<State>(I);
          break;
        }
      }
    }
    if (Found == UINT32_MAX) {
      Found = static_cast<State>(Repr.size());
      Repr.push_back(Q);
      ReprPred.push_back(M.Cert[Q]);
      ReprAcc.push_back(Acc);
    }
    ClassOf[Q] = Found;
  }

  CertifiedModule Out(Buchi(M.A.numSymbols(), 1));
  Out.Rank = M.Rank;
  Out.Kind = M.Kind;
  Out.A.addStates(static_cast<uint32_t>(Repr.size()));
  for (size_t I = 0; I < Repr.size(); ++I) {
    if (ReprAcc[I])
      Out.A.setAccepting(static_cast<State>(I));
    Out.Cert.push_back(ReprPred[I]);
  }
  for (State Q = 0; Q < M.A.numStates(); ++Q)
    for (const Buchi::Arc &Arc : M.A.arcsFrom(Q))
      Out.A.addTransition(ClassOf[Q], Arc.Sym, ClassOf[Arc.To]);
  for (State Q : M.A.initials().elems())
    Out.A.addInitial(ClassOf[Q]);
  if (M.UniversalState)
    Out.UniversalState = ClassOf[*M.UniversalState];
  return Out;
}

CertifiedModule ModuleBuilder::buildLasso(const Lasso &L,
                                          const LassoProof &Proof) {
  assert(Proof.Status != LassoStatus::Unknown && "needs a proof");
  // Footnote 1: an empty stem is materialized as one copy of the loop.
  std::vector<SymbolId> Stem = L.Stem.empty() ? L.Loop : L.Stem;
  const std::vector<SymbolId> &Loop = L.Loop;
  bool Infeasible = Proof.Status == LassoStatus::StemInfeasible;

  CertifiedModule M(Buchi(P.numSymbols(), 1));
  M.Rank = Infeasible ? LinearExpr::constant(0) : Proof.Rank;
  M.Kind = ModuleKind::Lasso;

  LassoProver Prover(P);
  std::vector<Cube> StemChain = Prover.postChain(Cube(), Stem);

  // Loop-head predicate: Inv /\ f < oldrnk (Definition 3.1 second bullet).
  // For an infeasible stem the head inherits the (contradictory) stem
  // postcondition, making every loop triple vacuous.
  Cube HeadCube = Infeasible ? StemChain.back() : Proof.Invariant;
  HeadCube.add(Constraint::lt(M.Rank, LinearExpr::variable(P.oldrnkVar())));
  Predicate HeadPred(HeadCube);

  // Stem states. With a trivial supporting invariant the predicates are
  // the bare oldrnk = INF of the paper (maximal merging); otherwise they
  // additionally carry the strongest postcondition so that the last stem
  // edge establishes the invariant (and, for infeasible stems, the
  // contradiction).
  bool NeedSp = Infeasible || !Proof.Invariant.isTrue();
  std::vector<State> StemStates;
  for (size_t I = 0; I < Stem.size(); ++I) {
    State S = M.A.addState();
    StemStates.push_back(S);
    M.Cert.push_back(NeedSp ? Predicate(StemChain[I], /*OldrnkIsInf=*/true)
                            : Predicate::oldrnkInfinity());
  }
  State Qf = M.A.addState();
  M.A.setAccepting(Qf);
  M.Cert.push_back(HeadPred);

  M.A.addInitial(StemStates[0]);
  for (size_t I = 0; I + 1 < Stem.size(); ++I)
    M.A.addTransition(StemStates[I], Stem[I], StemStates[I + 1]);
  M.A.addTransition(StemStates.back(), Stem.back(), Qf);

  // Loop states: strongest posts from Inv /\ oldrnk = f.
  Predicate Cur = postOldrnkAssign(HeadPred, M.Rank, P);
  State Prev = Qf;
  for (size_t I = 0; I + 1 < Loop.size(); ++I) {
    Cur = postPredicate(Cur, P.statement(Loop[I]), P);
    State S = M.A.addState();
    M.Cert.push_back(Cur);
    M.A.addTransition(Prev, Loop[I], S);
    Prev = S;
  }
  M.A.addTransition(Prev, Loop.back(), Qf);

  return mergeEqualPredicates(M);
}

//===----------------------------------------------------------------------===//
// Stage 1: finite-trace module (Section 3.1.2)
//===----------------------------------------------------------------------===//

CertifiedModule ModuleBuilder::buildFiniteTrace(const Lasso &L,
                                                const LassoProof &Proof) {
  assert(Proof.Status == LassoStatus::StemInfeasible && "needs an infeasible stem");
  std::vector<SymbolId> Stem = L.Stem.empty() ? L.Loop : L.Stem;
  size_t K = Proof.StemFailIndex;
  assert(K >= 1 && K <= Stem.size() && "invalid failure index");

  CertifiedModule M(Buchi(P.numSymbols(), 1));
  M.Rank = LinearExpr::constant(0);
  M.Kind = ModuleKind::FiniteTrace;

  LassoProver Prover(P);
  std::vector<Cube> Chain = Prover.postChain(Cube(), Stem);
  std::vector<State> States;
  for (size_t I = 0; I < K; ++I) {
    State S = M.A.addState();
    States.push_back(S);
    M.Cert.push_back(Predicate(Chain[I], /*OldrnkIsInf=*/true));
  }
  // The unsatisfiable tail state accepts everything.
  State Dead = M.A.addState();
  M.Cert.push_back(Predicate::contradiction());
  M.A.setAccepting(Dead);
  M.UniversalState = Dead;
  for (Symbol Sym = 0; Sym < P.numSymbols(); ++Sym)
    M.A.addTransition(Dead, Sym, Dead);

  M.A.addInitial(States[0]);
  for (size_t I = 0; I + 1 < K; ++I)
    M.A.addTransition(States[I], Stem[I], States[I + 1]);
  M.A.addTransition(States[K - 1], Stem[K - 1], Dead);

  return mergeEqualPredicates(M);
}

//===----------------------------------------------------------------------===//
// Stages 2 and 3: deterministic / semideterministic modules
//===----------------------------------------------------------------------===//

StateSet ModuleBuilder::pruneForDet(const CertifiedModule &M0, State Qf,
                                    const StateSet &D) const {
  if (!D.contains(Qf))
    return D;
  StateSet Out;
  for (State Q : D.elems()) {
    // Definition 3.2 omits non-accepting states whose predicate mentions
    // oldrnk. We keep states with *unsatisfiable* predicates: they can only
    // make the set predicate unsatisfiable, which turns the set into an
    // accepting trap (the F_det rule already classifies unsat sets as
    // accepting), and every Hoare triple out of them is vacuously valid.
    // This matters for trivial-rank certificates of infeasible loops,
    // where the whole loop part of M_uv is unsatisfiable.
    if (Q == Qf || !M0.Cert[Q].mentionsOldrnk(P.oldrnkVar()) ||
        M0.Cert[Q].isUnsatisfiable(P.oldrnkVar()))
      Out.insert(Q);
  }
  return Out;
}

namespace {

/// Shared subset-construction scaffolding for stages 2 and 3.
struct SubsetSpace {
  std::vector<StateSet> Sets;
  std::unordered_map<size_t, std::vector<State>> Index;

  State intern(StateSet S) {
    size_t H = S.hash();
    auto It = Index.find(H);
    if (It != Index.end())
      for (State Id : It->second)
        if (Sets[Id] == S)
          return Id;
    State Id = static_cast<State>(Sets.size());
    Sets.push_back(std::move(S));
    Index[H].push_back(Id);
    return Id;
  }
};

} // namespace

bool ModuleBuilder::pollAbort() {
  if (!Aborted && ShouldAbort && ShouldAbort())
    Aborted = true;
  return Aborted;
}

CertifiedModule ModuleBuilder::buildSubsetModule(const CertifiedModule &M0,
                                                 bool DelayedAcceptance) {
  assert(M0.Kind == ModuleKind::Lasso && "stages 2 and 3 start from stage 0");
  // Stage-0 modules have a unique accepting state qf.
  State Qf = UINT32_MAX;
  for (State Q = 0; Q < M0.A.numStates(); ++Q)
    if (M0.A.acceptMask(Q) != 0)
      Qf = Q;
  assert(Qf != UINT32_MAX && "lasso module must have an accepting state");

  CertifiedModule M(Buchi(P.numSymbols(), 1));
  M.Rank = M0.Rank;
  M.Kind = DelayedAcceptance ? ModuleKind::Semideterministic
                             : ModuleKind::Deterministic;

  // Section 3.1.4 grants the extra successor delta-and \ {qf} only to
  // states "not reachable from an accepting state"; the paper argues this
  // is well-defined because stem-side subsets imply oldrnk = INF while
  // loop-side subsets (reached after an accepting visit) do not. We use
  // that argument as the static criterion: a subset gets the alternative
  // iff it is non-accepting and its conjunction carries the oldrnk = INF
  // conjunct (a non-accepting conjunction is satisfiable) -- exactly the
  // stem side of the automaton. buildSemideterministic guards the result.
  SubsetSpace Space;
  std::vector<bool> AllowAlt, Built;
  std::deque<State> Work;
  // Interns a subset; a new one becomes the next module state, with its
  // conjoined certificate and the F_det acceptance rule. \returns its id,
  // queued for expansion unless already expanded.
  auto Visit = [&](StateSet S) {
    State Id = Space.intern(std::move(S));
    if (Id == M.A.numStates()) {
      M.A.addState();
      Predicate Pred = conjoinAll(M0, Space.Sets[Id]);
      bool Accepting = Space.Sets[Id].contains(Qf) ||
                       Pred.isUnsatisfiable(P.oldrnkVar());
      if (Accepting)
        M.A.setAccepting(Id);
      AllowAlt.push_back(DelayedAcceptance && !Accepting &&
                         Pred.oldrnkIsInf());
      Built.push_back(false);
      M.Cert.push_back(std::move(Pred));
    }
    if (!Built[Id])
      Work.push_back(Id);
    return Id;
  };
  M.A.addInitial(Visit(M0.A.initials()));

  while (!Work.empty()) {
    if (pollAbort())
      return M;
    State Id = Work.front();
    Work.pop_front();
    if (Built[Id])
      continue;
    Built[Id] = true;
    bool HasQf = Space.Sets[Id].contains(Qf);
    for (Symbol Sym = 0; Sym < P.numSymbols(); ++Sym) {
      StateSet D = successorsOf(M0, M.Cert[Id], HasQf, Sym);
      M.A.addTransition(Id, Sym, Visit(pruneForDet(M0, Qf, D)));
      if (AllowAlt[Id] && D.contains(Qf)) {
        D.erase(Qf);
        M.A.addTransition(Id, Sym, Visit(std::move(D)));
      }
    }
  }
  return M;
}

CertifiedModule ModuleBuilder::buildDeterministic(const CertifiedModule &M0) {
  return buildSubsetModule(M0, /*DelayedAcceptance=*/false);
}

CertifiedModule
ModuleBuilder::buildSemideterministic(const CertifiedModule &M0) {
  CertifiedModule M = buildSubsetModule(M0, /*DelayedAcceptance=*/true);
  // Guard: in pathological certificate shapes the static criterion could
  // misclassify; fall back to the purely deterministic successor relation
  // (still a valid certified module) rather than hand a non-SDBA to NCSB.
  if (!Aborted && !classifySdba(completeWithSink(M.A)).IsSemideterministic) {
    CertifiedModule Det = buildDeterministic(M0);
    Det.Kind = ModuleKind::Semideterministic;
    return Det;
  }
  return M;
}

//===----------------------------------------------------------------------===//
// Stage 4: nondeterministic module (Section 3.1.5) and the stem-saturated
// fallback
//===----------------------------------------------------------------------===//

CertifiedModule
ModuleBuilder::buildSaturatedLasso(const CertifiedModule &M0) {
  CertifiedModule M = M0;
  M.Kind = ModuleKind::Semideterministic;
  for (State Q = 0; Q < M0.A.numStates(); ++Q) {
    // Only stem-side states (oldrnk = INF) gain transitions; the loop part
    // stays word-shaped, hence deterministic.
    if (!M0.Cert[Q].oldrnkIsInf())
      continue;
    bool Accepting = M0.A.acceptMask(Q) != 0;
    for (Symbol Sym = 0; Sym < P.numSymbols(); ++Sym) {
      StateSet Succ = successorsOf(M0, M0.Cert[Q], Accepting, Sym);
      for (State To : Succ.elems())
        M.A.addTransition(Q, Sym, To);
    }
  }
  if (!classifySdba(completeWithSink(M.A)).IsSemideterministic) {
    // Merged loop states can in rare shapes break determinism; fall back
    // to the plain lasso module.
    return M0;
  }
  return M;
}

CertifiedModule
ModuleBuilder::buildNondeterministic(const CertifiedModule &M0) {
  CertifiedModule M = M0;
  M.Kind = ModuleKind::Nondeterministic;
  for (State Q = 0; Q < M0.A.numStates(); ++Q) {
    if (pollAbort())
      return M;
    bool Accepting = M0.A.acceptMask(Q) != 0;
    for (Symbol Sym = 0; Sym < P.numSymbols(); ++Sym) {
      StateSet Succ = successorsOf(M0, M0.Cert[Q], Accepting, Sym);
      for (State To : Succ.elems())
        M.A.addTransition(Q, Sym, To);
    }
  }
  return M;
}
