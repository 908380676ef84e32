//===- termination/RunReport.cpp - Versioned JSON run reports -------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "termination/RunReport.h"

using namespace termcheck;

int termcheck::verdictExitCode(Verdict V) {
  switch (V) {
  case Verdict::Terminating:
    return 0;
  case Verdict::Nonterminating:
    return 1;
  case Verdict::Unknown:
    return 2;
  case Verdict::Timeout:
  case Verdict::Cancelled:
    return 3;
  }
  return 2;
}

namespace {

/// The per-stage module census of the Section 7 tables, lifted out of the
/// flat counter namespace into a fixed-shape object (absent stages are
/// written as zero so the schema is stable across programs).
void writeStages(json::Writer &W, const Statistics &S) {
  W.key("stages");
  W.beginObject();
  W.field("lasso", S.get("modules.lasso"));
  W.field("finite", S.get("modules.finite"));
  W.field("deterministic", S.get("modules.deterministic"));
  W.field("semideterministic", S.get("modules.semideterministic"));
  W.field("nondeterministic", S.get("modules.nondeterministic"));
  W.field("rotated", S.get("modules.rotated"));
  W.endObject();
}

void writeStats(json::Writer &W, const Statistics &Counters,
                const Statistics &Timers, bool Deterministic) {
  W.key("counters");
  W.beginObject();
  for (const auto &[K, V] : Counters.counters())
    W.field(K, V);
  W.endObject();
  W.key("maxima");
  W.beginObject();
  for (const auto &[K, V] : Counters.maxima())
    W.field(K, V);
  W.endObject();
  // Per-stage wall-clock timers (time.sample, time.prove, time.generalize,
  // time.subtract, time.nonterm, time.reduce). Keys are deterministic --
  // the same run reaches the same pipeline stages -- so zeroing only the
  // values preserves the schema under Deterministic.
  W.key("timers_s");
  W.beginObject();
  for (const auto &[K, V] : Timers.times())
    W.field(K, Deterministic ? 0.0 : V);
  W.endObject();
}

void writeEntrants(json::Writer &W, const PortfolioRunResult &PR,
                   bool Deterministic) {
  W.key("entrants");
  W.beginArray();
  for (const EntrantTimeline &TL : PR.Entrants) {
    W.beginObject();
    W.field("name", TL.Name);
    W.field("started", TL.Started);
    W.field("faulted", TL.Faulted);
    W.field("won", TL.Won);
    if (TL.Started && !TL.Faulted)
      W.field("verdict", verdictName(TL.V));
    else
      W.fieldNull("verdict");
    if (TL.Faulted)
      W.field("quarantine_reason", TL.FaultKind);
    else
      W.fieldNull("quarantine_reason");
    W.field("spawn_s", Deterministic ? 0.0 : TL.SpawnSeconds);
    W.field("finish_s", Deterministic ? 0.0 : TL.FinishSeconds);
    W.endObject();
  }
  W.endArray();
}

} // namespace

void termcheck::writeRunReportFields(json::Writer &W,
                                     const RunReportInput &In,
                                     const RunReportOptions &Opts) {
  const AnalysisResult &R = *In.Result;
  const bool Det = Opts.Deterministic;

  W.field("schema", RunReportSchemaName);
  W.field("schema_version", static_cast<int64_t>(RunReportSchemaVersion));
  W.field("program", In.ProgramName);
  W.field("source", In.SourcePath);
  W.field("mode", In.Portfolio ? "portfolio" : "single");
  W.field("jobs", static_cast<int64_t>(In.Jobs));
  W.field("timeout_s", In.TimeoutSeconds);
  W.field("verdict", verdictName(R.V));
  W.field("conclusive", isConclusive(R.V));
  W.field("exit_code", static_cast<int64_t>(verdictExitCode(R.V)));
  W.field("wall_s", Det ? 0.0 : R.Seconds);
  W.field("iterations", R.Stats.get("iterations"));
  W.field("contained_faults", [&] {
    int64_t N = 0;
    for (const auto &[K, V] : R.Stats.counters())
      if (K.rfind("fault.contained.", 0) == 0)
        N += V;
    return N;
  }());

  writeStages(W, R.Stats);

  W.key("modules");
  W.beginArray();
  for (const CertifiedModule &M : R.Modules) {
    W.beginObject();
    W.field("kind", moduleKindName(M.Kind));
    W.field("states", static_cast<int64_t>(M.A.numStates()));
    W.endObject();
  }
  W.endArray();

  if (R.Counterexample) {
    W.key("counterexample");
    W.beginObject();
    W.field("stem_len", static_cast<int64_t>(R.Counterexample->Stem.size()));
    W.field("loop_len", static_cast<int64_t>(R.Counterexample->Loop.size()));
    W.endObject();
  } else {
    W.fieldNull("counterexample");
  }

  if (R.Nonterm)
    W.field("nonterm_certificate",
            R.Nonterm->Kind == NontermKind::RecurrentSet ? "recurrent_set"
                                                         : "execution_cycle");
  else
    W.fieldNull("nonterm_certificate");

  if (In.Portfolio) {
    const PortfolioRunResult &PR = *In.Portfolio;
    // Portfolio runs report the merged (namespaced, deterministic) counter
    // bag but the *winner's* timers: merged timers would mix wall-clock
    // from racing losers into one meaningless sum.
    writeStats(W, PR.Merged, R.Stats, Det);
    W.key("portfolio");
    W.beginObject();
    bool HasWinner = PR.WinnerIndex < PR.Entrants.size();
    if (HasWinner) {
      W.field("winner", PR.WinnerName);
      W.field("winner_index", static_cast<int64_t>(PR.WinnerIndex));
    } else {
      W.fieldNull("winner");
      W.fieldNull("winner_index");
    }
    W.field("faulted_entrants", static_cast<int64_t>(PR.FaultedEntrants));
    writeEntrants(W, PR, Det);
    W.endObject();
  } else {
    writeStats(W, R.Stats, R.Stats, Det);
    W.fieldNull("portfolio");
  }

  W.field("trace_events", In.TraceEvents);
}

void termcheck::writeRunReport(std::ostream &OS, const RunReportInput &In,
                               const RunReportOptions &Opts) {
  json::Writer W(OS);
  W.beginObject();
  writeRunReportFields(W, In, Opts);
  W.endObject();
  W.finish();
}
