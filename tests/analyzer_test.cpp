//===- tests/analyzer_test.cpp - End-to-end analysis tests ----------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "termination/Analyzer.h"

#include "benchgen/ProgramFamilies.h"
#include "program/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <variant>

using namespace termcheck;

namespace {

Program parse(const char *Src) {
  ParseResult R = parseProgram(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(*R.Prog);
}

AnalysisResult analyze(Program &P, AnalyzerOptions Opts = {}) {
  if (Opts.TimeoutSeconds == 0)
    Opts.TimeoutSeconds = 30;
  TerminationAnalyzer A(P, Opts);
  return A.run();
}

TEST(Analyzer, EmptyBodyTerminates) {
  Program P = parse("program p(i) { i := 1; }");
  AnalysisResult R = analyze(P);
  EXPECT_EQ(R.V, Verdict::Terminating);
  EXPECT_TRUE(R.Modules.empty()) << "no infinite path to cover";
}

TEST(Analyzer, SimpleCountdownTerminates) {
  Program P = parse("program p(i) { while (i > 0) { i := i - 1; } }");
  AnalysisResult R = analyze(P);
  EXPECT_EQ(R.V, Verdict::Terminating);
  EXPECT_GE(R.Modules.size(), 1u);
}

TEST(Analyzer, ModulesAreValidCertificates) {
  Program P = parse("program p(i) { while (i > 0) { i := i - 1; } }");
  AnalysisResult R = analyze(P);
  ASSERT_EQ(R.V, Verdict::Terminating);
  for (const CertifiedModule &M : R.Modules)
    EXPECT_EQ(validateModule(M, P), "");
}

TEST(Analyzer, PsortTerminates) {
  Program P = parse(R"(
program sort(i) {
  while (i > 0) {
    j := 1;
    while (j < i) { j := j + 1; }
    i := i - 1;
  }
})");
  AnalysisResult R = analyze(P);
  EXPECT_EQ(R.V, Verdict::Terminating);
  EXPECT_GE(R.Modules.size(), 2u) << "inner and outer loop need modules";
  for (const CertifiedModule &M : R.Modules)
    EXPECT_EQ(validateModule(M, P), "");
}

TEST(Analyzer, WhileTrueIsNonterminating) {
  // The identity loop is recurrent everywhere; the prover must certify it.
  Program P = parse("program p(i) { while (true) { skip; } }");
  AnalysisResult R = analyze(P);
  ASSERT_EQ(R.V, Verdict::Nonterminating);
  ASSERT_TRUE(R.Counterexample.has_value());
  ASSERT_TRUE(R.Nonterm.has_value());
  EXPECT_EQ(R.Nonterm->validate(P), "");
}

TEST(Analyzer, DivergingIncrementIsNonterminating) {
  Program P = parse("program p(i) { while (true) { i := i + 1; } }");
  AnalysisResult R = analyze(P);
  ASSERT_EQ(R.V, Verdict::Nonterminating);
  ASSERT_TRUE(R.Counterexample.has_value());
  ASSERT_TRUE(R.Nonterm.has_value());
  EXPECT_EQ(R.Nonterm->validate(P), "");
}

TEST(Analyzer, NontermDisabledDegradesToUnknown) {
  Program P = parse("program p(i) { while (true) { i := i + 1; } }");
  AnalyzerOptions Opts;
  Opts.ProveNontermination = false;
  AnalysisResult R = analyze(P, Opts);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_FALSE(R.Nonterm.has_value());
  ASSERT_TRUE(R.Counterexample.has_value());
}

TEST(Analyzer, CountUpForeverIsNotProvedTerminating) {
  Program P = parse("program p(i) { while (i > 0) { i := i + 1; } }");
  AnalysisResult R = analyze(P);
  EXPECT_NE(R.V, Verdict::Terminating);
}

TEST(Analyzer, BranchingLoopBody) {
  // Terminates: both branches decrease i.
  Program P = parse(R"(
program p(i) {
  while (i > 0) {
    if (*) { i := i - 1; } else { i := i - 2; }
  }
})");
  AnalysisResult R = analyze(P);
  EXPECT_EQ(R.V, Verdict::Terminating);
}

TEST(Analyzer, PhaseSplitLoop) {
  // Two phases with different ranking arguments.
  Program P = parse(R"(
program p(i, j) {
  while (i > 0) { i := i - 1; }
  while (j > 0) { j := j - 1; }
})");
  AnalysisResult R = analyze(P);
  EXPECT_EQ(R.V, Verdict::Terminating);
}

TEST(Analyzer, NestedLoopsWithReset) {
  // The classic pattern needing two modules (inner resets each round).
  Program P = parse(R"(
program p(i, j) {
  while (i > 0) {
    j := i;
    while (j > 0) { j := j - 1; }
    i := i - 1;
  }
})");
  AnalysisResult R = analyze(P);
  EXPECT_EQ(R.V, Verdict::Terminating);
  for (const CertifiedModule &M : R.Modules)
    EXPECT_EQ(validateModule(M, P), "");
}

TEST(Analyzer, GuardedInfiniteLoopUnreachable) {
  // The loop cannot be entered: i == 0 at the head.
  Program P = parse(R"(
program p(i) {
  i := 0;
  while (i > 0) { i := i; }
})");
  AnalysisResult R = analyze(P);
  EXPECT_EQ(R.V, Verdict::Terminating);
}

TEST(Analyzer, SingleStageAlsoSolvesSimplePrograms) {
  Program P = parse("program p(i) { while (i > 0) { i := i - 1; } }");
  AnalyzerOptions Opts;
  Opts.MultiStage = false;
  AnalysisResult R = analyze(P, Opts);
  EXPECT_EQ(R.V, Verdict::Terminating);
  EXPECT_GE(R.Stats.get("modules.nondeterministic"), 1);
}

TEST(Analyzer, AllStageSequencesAgreeOnVerdicts) {
  const char *Sources[] = {
      "program a(i) { while (i > 0) { i := i - 1; } }",
      "program b(i, j) { while (i > 0) { i := i - 1; j := j + 1; } }",
      R"(program c(i, j) {
           while (i > 0) {
             j := i;
             while (j > 0) { j := j - 1; }
             i := i - 1;
           }
         })",
  };
  for (const char *Src : Sources) {
    Verdict Got[3];
    int K = 0;
    for (auto Seq : {AnalyzerOptions::sequenceSkipDet(),
                     AnalyzerOptions::sequenceSkipSemi(),
                     AnalyzerOptions::sequenceAll()}) {
      Program P = parse(Src);
      AnalyzerOptions Opts;
      Opts.Sequence = Seq;
      Got[K++] = analyze(P, Opts).V;
    }
    EXPECT_EQ(Got[0], Got[1]);
    EXPECT_EQ(Got[1], Got[2]);
    EXPECT_EQ(Got[0], Verdict::Terminating);
  }
}

TEST(Analyzer, NcsbVariantsAndSubsumptionAgree) {
  const char *Src = R"(
program sort(i) {
  while (i > 0) {
    j := 1;
    while (j < i) { j := j + 1; }
    i := i - 1;
  }
})";
  for (NcsbVariant V : {NcsbVariant::Original, NcsbVariant::Lazy}) {
    for (bool Sub : {false, true}) {
      Program P = parse(Src);
      AnalyzerOptions Opts;
      Opts.Ncsb = V;
      Opts.UseSubsumption = Sub;
      AnalysisResult R = analyze(P, Opts);
      EXPECT_EQ(R.V, Verdict::Terminating)
          << "variant " << (V == NcsbVariant::Lazy ? "lazy" : "orig")
          << " subsumption " << Sub;
    }
  }
}

TEST(Analyzer, ModulesJointlyCoverSampledProgramLassos) {
  // Soundness-style property: after TERMINATING, every sampled ultimately
  // periodic word of A_P is in some module's language.
  Program P = parse(R"(
program sort(i) {
  while (i > 0) {
    j := 1;
    while (j < i) { j := j + 1; }
    i := i - 1;
  }
})");
  AnalysisResult R = analyze(P);
  ASSERT_EQ(R.V, Verdict::Terminating);
  Buchi AP = programToBuchi(P);
  // Sample lassos of A_P by random walks that close a cycle.
  Rng Walk(8);
  int Checked = 0;
  for (int Iter = 0; Iter < 200 && Checked < 40; ++Iter) {
    std::vector<State> Path{AP.initials().elems()[0]};
    std::vector<Symbol> Syms;
    for (int Step = 0; Step < 12; ++Step) {
      const auto &Arcs = AP.arcsFrom(Path.back());
      if (Arcs.empty())
        break;
      const Buchi::Arc &Arc = Arcs[Walk.below(Arcs.size())];
      Syms.push_back(Arc.Sym);
      Path.push_back(Arc.To);
      // Did we close a cycle?
      for (size_t I = 0; I + 1 < Path.size(); ++I) {
        if (Path[I] != Path.back())
          continue;
        LassoWord W;
        W.Stem.assign(Syms.begin(), Syms.begin() + I);
        W.Loop.assign(Syms.begin() + I, Syms.end());
        ASSERT_TRUE(acceptsLasso(AP, W));
        bool Covered = false;
        for (const CertifiedModule &M : R.Modules)
          Covered = Covered || acceptsLasso(M.A, W);
        EXPECT_TRUE(Covered) << "uncovered program lasso " << W.str();
        ++Checked;
        Step = 1000;
        break;
      }
    }
  }
  EXPECT_GT(Checked, 10);
}

TEST(Analyzer, StatisticsAreRecorded) {
  Program P = parse("program p(i) { while (i > 0) { i := i - 1; } }");
  AnalysisResult R = analyze(P);
  EXPECT_GE(R.Stats.get("iterations"), 1);
  EXPECT_GT(R.Seconds, 0.0);
}

TEST(Analyzer, TimeoutReportsTimeout) {
  // A hard program with an absurdly small budget.
  Program P = parse(R"(
program p(i, j, k) {
  while (i > 0) {
    j := i;
    while (j > 0) { j := j - 1; k := k + 1; }
    i := i - 1;
  }
})");
  AnalyzerOptions Opts;
  Opts.MaxIterations = 1; // forces the budget path deterministically
  TerminationAnalyzer A(P, Opts);
  AnalysisResult R = A.run();
  EXPECT_EQ(R.V, Verdict::Timeout);
}

/// Cancels the run's token at the first stage-3 attempt and records the
/// kind of every event that follows.
class CancelAtFirstStage3 : public TraceSink {
public:
  explicit CancelAtFirstStage3(CancellationToken &Token) : Token(Token) {}

  void consume(const TraceEvent &E) override {
    if (Token.cancelled()) {
      After.push_back(E.Kind);
      return;
    }
    if (E.Kind != TraceEventKind::StageAttempt)
      return;
    const TraceEvent::FieldValue *Stage = E.find("stage");
    if (Stage && std::get<int64_t>(*Stage) == 3)
      Token.cancel();
  }

  std::vector<TraceEventKind> After;

private:
  CancellationToken &Token;
};

TEST(Analyzer, CancelInsideGeneralizationBuildsNoModule) {
  // A cancel that lands while a lasso is being generalized stops the
  // generalization at its next poll: no further stage or rotation runs,
  // and no module is built or subtracted for that lasso.
  const std::vector<BenchProgram> Suite = benchmarkSuite();
  auto Gcd = std::find_if(Suite.begin(), Suite.end(),
                          [](const BenchProgram &B) {
                            return B.Name == "gcd_like";
                          });
  ASSERT_NE(Gcd, Suite.end());
  Program P = parse(Gcd->Source.c_str());
  CancellationToken Token;
  CancelAtFirstStage3 Sink(Token);
  Trace TR(Sink);
  AnalyzerOptions Opts;
  Opts.Cancel = &Token;
  Opts.Tracer = &TR;
  AnalysisResult R = analyze(P, Opts);
  ASSERT_TRUE(Token.cancelled()) << "the run never attempted stage 3";
  EXPECT_EQ(R.V, Verdict::Cancelled);
  for (TraceEventKind K : Sink.After) {
    EXPECT_NE(K, TraceEventKind::ModuleBuilt) << traceEventKindName(K);
    EXPECT_NE(K, TraceEventKind::StageAttempt) << traceEventKindName(K);
  }
}


TEST(Analyzer, SmallSuiteMatchesExpectations) {
  // End-to-end integration over the reduced benchmark suite: terminating
  // programs get proved, nonterminating ones produce a counterexample.
  for (const BenchProgram &B : smallBenchmarkSuite()) {
    Program P = parse(B.Source.c_str());
    AnalyzerOptions Opts;
    Opts.TimeoutSeconds = 20;
    TerminationAnalyzer A(P, Opts);
    AnalysisResult R = A.run();
    if (B.Expect == Expected::Terminating) {
      EXPECT_EQ(R.V, Verdict::Terminating) << B.Name;
      for (const CertifiedModule &M : R.Modules)
        EXPECT_EQ(validateModule(M, P), "") << B.Name;
    } else if (B.Expect == Expected::Nonterminating) {
      EXPECT_EQ(R.V, Verdict::Nonterminating) << B.Name;
      EXPECT_TRUE(R.Counterexample.has_value()) << B.Name;
      ASSERT_TRUE(R.Nonterm.has_value()) << B.Name;
      EXPECT_EQ(R.Nonterm->validate(P), "") << B.Name;
    }
  }
}

TEST(Analyzer, RandomProgramSoundnessSmoke) {
  // 100 seeded random terminating programs under the nonterm-enabled
  // default options: the recurrence prover must never "prove" any of them
  // nonterminating, and every Nonterminating verdict anywhere must carry a
  // certificate that revalidates.
  Rng Seed(0x5EED);
  for (const BenchProgram &B : randomPrograms(Seed, 100)) {
    Program P = parse(B.Source.c_str());
    AnalyzerOptions Opts;
    Opts.TimeoutSeconds = 10;
    Opts.MaxIterations = 40;
    TerminationAnalyzer A(P, Opts);
    AnalysisResult R = A.run();
    EXPECT_NE(R.V, Verdict::Nonterminating) << B.Name << "\n" << B.Source;
    if (R.V == Verdict::Nonterminating) {
      ASSERT_TRUE(R.Nonterm.has_value()) << B.Name;
      EXPECT_EQ(R.Nonterm->validate(P), "") << B.Name;
    }
  }
}

TEST(Analyzer, ReductionDoesNotChangeVerdicts) {
  for (const char *Src :
       {"program a(i) { while (i > 0) { i := i - 1; } }",
        R"(program sort(i) {
             while (i > 0) {
               j := 1;
               while (j < i) { j := j + 1; }
               i := i - 1;
             }
           })"}) {
    Verdict Got[2];
    int K = 0;
    for (bool Reduce : {false, true}) {
      Program P = parse(Src);
      AnalyzerOptions Opts;
      Opts.ReduceRemaining = Reduce;
      Got[K++] = analyze(P, Opts).V;
    }
    EXPECT_EQ(Got[0], Got[1]);
    EXPECT_EQ(Got[0], Verdict::Terminating);
  }
}

} // namespace
