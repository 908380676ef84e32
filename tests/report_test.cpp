//===- tests/report_test.cpp - Golden run-report schema -------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The golden-schema gate for the versioned JSON run report: analyze real
/// corpus programs (a terminating one and a nonterminating one), parse the
/// emitted report back, and assert every key the schema promises --
/// schema/version stamps, verdict and exit code, the per-stage census and
/// timers, portfolio entrant timelines -- so a field rename or dropped key
/// fails here before any downstream jq pipeline notices. A second pass
/// pins Deterministic-mode byte-identity across two Jobs == 1 runs, and a
/// third checks the trace event counter feeds the report.
///
//===----------------------------------------------------------------------===//

#include "termination/RunReport.h"

#include "program/Parser.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace termcheck;

namespace {

#ifndef TERMCHECK_CORPUS_DIR
#error "build must define TERMCHECK_CORPUS_DIR"
#endif

Program loadProgram(const std::string &Stem) {
  std::ifstream In(std::string(TERMCHECK_CORPUS_DIR) + "/" + Stem + ".while");
  EXPECT_TRUE(In.good()) << Stem;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  ParseResult R = parseProgram(Buf.str());
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(*R.Prog);
}

/// Runs the sequential analyzer on \p Stem and renders one report.
std::string reportFor(const std::string &Stem, bool Deterministic,
                      Trace *Tracer = nullptr) {
  Program P = loadProgram(Stem);
  AnalyzerOptions Opts;
  Opts.TimeoutSeconds = 30;
  Opts.Tracer = Tracer;
  AnalysisResult R = TerminationAnalyzer(P, Opts).run();
  RunReportInput In;
  In.ProgramName = P.name();
  In.SourcePath = Stem + ".while";
  In.Result = &R;
  In.Jobs = 1;
  In.TimeoutSeconds = 30;
  In.TraceEvents = Tracer ? Tracer->eventCount() : 0;
  RunReportOptions RO;
  RO.Deterministic = Deterministic;
  std::ostringstream OS;
  writeRunReport(OS, In, RO);
  return OS.str();
}

/// Asserts \p Doc parses and carries every key the schema promises.
json::Value parseAndCheckRequiredKeys(const std::string &Doc) {
  json::Value V;
  std::string Err;
  EXPECT_TRUE(json::parse(Doc, V, &Err)) << Err << "\n" << Doc;
  EXPECT_TRUE(V.isObject());
  for (const char *Key :
       {"schema", "schema_version", "program", "source", "mode", "jobs",
        "timeout_s", "verdict", "conclusive", "exit_code", "wall_s",
        "iterations", "contained_faults", "stages", "modules",
        "counterexample", "nonterm_certificate", "counters", "maxima",
        "timers_s", "portfolio", "trace_events"})
    EXPECT_NE(V.find(Key), nullptr) << "missing required key: " << Key;
  const json::Value *Schema = V.find("schema");
  if (Schema) {
    EXPECT_EQ(Schema->Str, RunReportSchemaName);
  }
  const json::Value *Ver = V.find("schema_version");
  if (Ver) {
    EXPECT_EQ(Ver->Num, RunReportSchemaVersion);
  }
  const json::Value *Stages = V.find("stages");
  if (Stages) {
    EXPECT_TRUE(Stages->isObject());
    for (const char *Key : {"lasso", "finite", "deterministic",
                            "semideterministic", "nondeterministic"})
      EXPECT_NE(Stages->find(Key), nullptr) << "missing stage key: " << Key;
  }
  return V;
}

} // namespace

TEST(RunReport, TerminatingProgramCarriesFullSchema) {
  json::Value V = parseAndCheckRequiredKeys(reportFor("up_down", false));
  EXPECT_EQ(V.find("verdict")->Str, "TERMINATING");
  EXPECT_EQ(V.find("exit_code")->Num, 0);
  EXPECT_TRUE(V.find("conclusive")->B);
  EXPECT_EQ(V.find("mode")->Str, "single");
  EXPECT_EQ(V.find("jobs")->Num, 1);
  EXPECT_TRUE(V.find("portfolio")->isNull());
  EXPECT_TRUE(V.find("counterexample")->isNull());
  EXPECT_GE(V.find("iterations")->Num, 1);
  // A terminating proof produces at least one certified module with a
  // positive state count.
  const json::Value *Modules = V.find("modules");
  ASSERT_TRUE(Modules->isArray());
  ASSERT_FALSE(Modules->Arr.empty());
  for (const json::Value &M : Modules->Arr) {
    EXPECT_NE(M.find("kind"), nullptr);
    ASSERT_NE(M.find("states"), nullptr);
    EXPECT_GE(M.find("states")->Num, 1);
  }
  // Per-stage timers are present as an object keyed time.<stage>.
  const json::Value *Timers = V.find("timers_s");
  ASSERT_TRUE(Timers->isObject());
  EXPECT_NE(Timers->find("time.sample"), nullptr);
  EXPECT_NE(Timers->find("time.prove"), nullptr);
}

TEST(RunReport, NonterminatingProgramReportsCertificateAndLasso) {
  json::Value V = parseAndCheckRequiredKeys(reportFor("counter_drift", false));
  EXPECT_EQ(V.find("verdict")->Str, "NONTERMINATING");
  EXPECT_EQ(V.find("exit_code")->Num, 1);
  const json::Value *Cert = V.find("nonterm_certificate");
  ASSERT_FALSE(Cert->isNull());
  EXPECT_TRUE(Cert->Str == "recurrent_set" || Cert->Str == "execution_cycle")
      << Cert->Str;
  const json::Value *Cex = V.find("counterexample");
  ASSERT_TRUE(Cex->isObject());
  EXPECT_GE(Cex->find("loop_len")->Num, 1);
}

TEST(RunReport, DeterministicModeIsByteIdenticalAcrossRuns) {
  std::string A = reportFor("up_down", true);
  std::string B = reportFor("up_down", true);
  EXPECT_EQ(A, B);
  std::string C = reportFor("counter_drift", true);
  std::string D = reportFor("counter_drift", true);
  EXPECT_EQ(C, D);
}

TEST(RunReport, PortfolioReportCarriesEntrantTimelines) {
  Program P = loadProgram("up_down");
  PortfolioOptions PO;
  PO.Jobs = 1; // deterministic sequential fallback
  PO.TimeoutSeconds = 30;
  std::vector<PortfolioConfig> Configs = defaultPortfolio(3);
  PortfolioRunResult PR = runPortfolio(P, Configs, PO);

  RunReportInput In;
  In.ProgramName = P.name();
  In.SourcePath = "up_down.while";
  In.Result = &PR.Result;
  In.Portfolio = &PR;
  In.Jobs = 1;
  In.TimeoutSeconds = 30;
  std::ostringstream OS;
  writeRunReport(OS, In, {/*Deterministic=*/true});

  json::Value V = parseAndCheckRequiredKeys(OS.str());
  EXPECT_EQ(V.find("mode")->Str, "portfolio");
  const json::Value *Pf = V.find("portfolio");
  ASSERT_TRUE(Pf->isObject());
  ASSERT_NE(Pf->find("winner"), nullptr);
  ASSERT_NE(Pf->find("faulted_entrants"), nullptr);
  const json::Value *Entrants = Pf->find("entrants");
  ASSERT_TRUE(Entrants && Entrants->isArray());
  ASSERT_EQ(Entrants->Arr.size(), Configs.size());
  for (const json::Value &E : Entrants->Arr)
    for (const char *Key : {"name", "started", "faulted", "won", "verdict",
                            "quarantine_reason", "spawn_s", "finish_s"})
      EXPECT_NE(E.find(Key), nullptr) << "missing entrant key: " << Key;
  // Roster order is preserved and exactly one entrant won this race.
  size_t Winners = 0;
  for (size_t I = 0; I < Entrants->Arr.size(); ++I) {
    EXPECT_EQ(Entrants->Arr[I].find("name")->Str, Configs[I].Name);
    Winners += Entrants->Arr[I].find("won")->B ? 1 : 0;
  }
  EXPECT_EQ(Winners, 1u);
}

TEST(RunReport, TraceEventCountFeedsTheReport) {
  RecordingSink Sink;
  Trace T(Sink);
  std::string Doc = reportFor("up_down", true, &T);
  json::Value V = parseAndCheckRequiredKeys(Doc);
  EXPECT_GT(V.find("trace_events")->Num, 0);
  EXPECT_EQ(V.find("trace_events")->Num, static_cast<double>(T.eventCount()));
  // The refinement loop's per-iteration events all arrived.
  EXPECT_GT(Sink.count(TraceEventKind::LassoSampled), 0u);
  EXPECT_GT(Sink.count(TraceEventKind::ModuleBuilt), 0u);
  EXPECT_GT(Sink.count(TraceEventKind::Subtraction), 0u);
  EXPECT_EQ(Sink.count(TraceEventKind::VerdictReached), 1u);
}
