//===- tests/generalize_test.cpp - Multi-stage generalization tests -------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "termination/Generalize.h"

#include "automata/DbaComplement.h"
#include "automata/Difference.h"
#include "automata/Ops.h"
#include "automata/Scc.h"
#include "automata/Sdba.h"
#include "benchgen/ProgramFamilies.h"
#include "program/Parser.h"
#include "termination/Analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

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
  // Generalizing over the full program alphabet, M_semi covers the
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

//===----------------------------------------------------------------------===//
// Golden module shapes
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_CORPUS_DIR
#error "build must define TERMCHECK_CORPUS_DIR"
#endif
#ifndef TERMCHECK_MODULES_GOLDEN
#error "build must define TERMCHECK_MODULES_GOLDEN"
#endif

/// Canonical text of a module list: per module its kind and rank, per
/// state its acceptance, certificate and arcs in arcsFrom order, then the
/// initial states.
std::string dumpModules(const std::vector<CertifiedModule> &Ms,
                        const Program &P) {
  std::ostringstream OS;
  for (const CertifiedModule &M : Ms) {
    OS << "module " << moduleKindName(M.Kind) << " rank "
       << M.Rank.str(P.vars()) << "\n";
    for (State Q = 0; Q < M.A.numStates(); ++Q) {
      OS << "  " << Q << (M.A.acceptMask(Q) != 0 ? " acc" : " -") << " ["
         << M.Cert[Q].str(P.vars()) << "]";
      for (const Buchi::Arc &Arc : M.A.arcsFrom(Q))
        OS << " " << Arc.Sym << ">" << Arc.To;
      OS << "\n";
    }
    OS << "  init";
    for (State Q : M.A.initials().elems())
      OS << " " << Q;
    OS << "\n";
  }
  return OS.str();
}

uint64_t fnv64(const std::string &S) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// Removes exactly the word \p W from \p A.
Buchi subtractWord(const Buchi &A, const LassoWord &W) {
  uint32_t Len = static_cast<uint32_t>(W.Stem.size() + W.Loop.size());
  Buchi WordAut(A.numSymbols(), 1);
  WordAut.addStates(Len);
  WordAut.addInitial(0);
  for (uint32_t I = 0; I < Len; ++I) {
    WordAut.setAccepting(I);
    Symbol Sym = I < W.Stem.size() ? W.Stem[I] : W.Loop[I - W.Stem.size()];
    WordAut.addTransition(
        I, Sym, I + 1 < Len ? I + 1 : static_cast<State>(W.Stem.size()));
  }
  Buchi Complete = completeWithSink(WordAut);
  DbaComplementOracle Oracle(Complete);
  return std::move(difference(A, Oracle).D);
}

struct GoldenProgram {
  std::string Name;
  std::string Source;
};

std::vector<GoldenProgram> goldenPrograms() {
  std::vector<GoldenProgram> Out;
  for (const auto &Entry :
       std::filesystem::directory_iterator(TERMCHECK_CORPUS_DIR)) {
    if (Entry.path().extension() != ".while")
      continue;
    std::ifstream In(Entry.path());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Out.push_back({"corpus/" + Entry.path().stem().string(), Buf.str()});
  }
  std::sort(Out.begin(), Out.end(),
            [](const GoldenProgram &A, const GoldenProgram &B) {
              return A.Name < B.Name;
            });
  for (const BenchProgram &BP : smallBenchmarkSuite())
    Out.push_back({"suite/" + BP.Name, BP.Source});
  return Out;
}

TEST(GeneralizeGolden, ModuleShapesMatchTheGoldenFile) {
  // Pins the modules behind the verdicts: the analyzer's modules under
  // sequences (i) and (iii), and stages 2-4 plus the saturated fallback on
  // the stage-0 module of the first sampled lasso that proves terminating.
  // Each run is one line "<program> <run> <verdict> <modules> <fnv64>";
  // the hash covers dumpModules(), which a mismatch prints.
  std::map<std::string, std::string> Golden;
  std::ifstream GoldenIn(TERMCHECK_MODULES_GOLDEN);
  ASSERT_TRUE(GoldenIn) << "cannot open " << TERMCHECK_MODULES_GOLDEN;
  for (std::string Line; std::getline(GoldenIn, Line);) {
    std::istringstream LS(Line);
    std::string Prog, Run;
    LS >> Prog >> Run;
    Golden[Prog + " " + Run] = Line;
  }

  size_t Runs = 0;
  auto Check = [&](const std::string &Key, const char *Verdict,
                   const std::vector<CertifiedModule> &Ms, const Program &P) {
    ++Runs;
    std::string Dump = dumpModules(Ms, P);
    char Hash[17];
    std::snprintf(Hash, sizeof(Hash), "%016llx",
                  static_cast<unsigned long long>(fnv64(Dump)));
    std::string Line = Key + " " + Verdict + " " +
                       std::to_string(Ms.size()) + " " + Hash;
    auto It = Golden.find(Key);
    std::string Expected = It == Golden.end() ? "(none)" : It->second;
    EXPECT_EQ(Expected, Line) << "module dump of " << Key << ":\n" << Dump;
  };

  for (const GoldenProgram &GP : goldenPrograms()) {
    ParseResult R = parseProgram(GP.Source);
    ASSERT_TRUE(R.ok()) << GP.Name << ": " << R.Error;
    Program &P = *R.Prog;
    for (bool All : {false, true}) {
      AnalyzerOptions Opts;
      Opts.Sequence = All ? AnalyzerOptions::sequenceAll()
                          : AnalyzerOptions::sequenceSkipDet();
      // Caps no golden run reaches: a construction that stops the
      // refinement from converging fails the comparison instead of
      // running on.
      Opts.MaxIterations = 64;
      Opts.TimeoutSeconds = 60;
      AnalysisResult Res = TerminationAnalyzer(P, Opts).run();
      Check(GP.Name + (All ? " seq_iii" : " seq_i"), verdictName(Res.V),
            Res.Modules, P);
    }

    // Sampling mirrors the analyzer: a lasso that does not prove
    // terminating is removed as a single word before the next sample.
    Buchi Remaining = programToBuchi(P);
    LassoProver Prover(P);
    std::vector<CertifiedModule> Stages;
    for (int Sample = 0; Sample < 8 && Stages.empty(); ++Sample) {
      std::optional<LassoWord> W = findAcceptingLasso(Remaining);
      if (!W)
        break;
      Lasso L{W->Stem, W->Loop};
      LassoProof Proof = Prover.prove(L);
      if (Proof.Status != LassoStatus::Terminating) {
        Remaining = subtractWord(Remaining, *W);
        continue;
      }
      ModuleBuilder B(P);
      CertifiedModule M0 = B.buildLasso(L, Proof);
      Stages.push_back(B.buildDeterministic(M0));
      Stages.push_back(B.buildSemideterministic(M0));
      Stages.push_back(B.buildNondeterministic(M0));
      Stages.push_back(B.buildSaturatedLasso(M0));
    }
    Check(GP.Name + " stages", Stages.empty() ? "none" : "terminating",
          Stages, P);
  }
  EXPECT_EQ(Runs, Golden.size()) << "stale lines in the golden file";
}

} // namespace
