//===- tools/termcheck_cli.cpp - Command-line termination checker ---------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The `termcheck` command-line front end: analyze one WHILE-language file
/// and print the verdict, the certified modules, and statistics.
///
///   termcheck [options] file.while
///     --timeout <s>       wall-clock budget (default 60)
///     --single-stage      generalize every lasso straight to M_nondet
///     --sequence <i|ii|iii>  stage sequence of Section 7 (default i)
///     --ncsb <lazy|original> SDBA complementation variant (default lazy)
///     --complement <auto|modular> module complementation strategy
///     --no-subsumption    disable the Section 6 antichain
///     --portfolio <K>     race the first K default configurations (1..3)
///     --jobs <N>          portfolio worker threads (default: all cores;
///                         1 = deterministic sequential fallback)
///     --no-nonterm        disable the nontermination prover
///     --witness           print the full nontermination witness
///     --dot-cfg           print the CFG in Graphviz format and exit
///     --dot-modules       also print each certified module as Graphviz
///     --quiet             verdict only
///
///     --max-states <N>    per-subtraction live-state cap (0 = unlimited);
///                         a capped subtraction degrades to word-only
///                         removal instead of exhausting memory
///
///     --stats-json <f>    write the versioned JSON run report to f
///                         ('-' = stdout); schema "termcheck-run-report"
///     --trace <f>         stream typed trace events as JSONL to f
///                         ('-' = stdout)
///     --stats-deterministic
///                         zero wall-clock values in the JSON report so
///                         two Jobs=1 runs emit byte-identical reports
///
/// Numeric option values are validated strictly: a non-numeric, negative,
/// out-of-range, or trailing-garbage value is a usage error (exit 4) with
/// a diagnostic naming the flag and the expected domain -- never silently
/// parsed as zero.
///
/// Exit code: 0 terminating, 1 nonterminating (validated certificate),
/// 2 unknown (including an engine fault contained at top level -- the
/// diagnostic goes to stderr), 3 timeout or cancelled, 4 usage or parse
/// error. Parse diagnostics are printed as `path:line:col: message`.
///
//===----------------------------------------------------------------------===//

#include "automata/Dot.h"
#include "program/Parser.h"
#include "support/Error.h"
#include "support/Trace.h"
#include "termination/Portfolio.h"
#include "termination/RunReport.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

using namespace termcheck;

namespace {

void usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [options] file.while\n"
      "  --timeout <s>           wall-clock budget in seconds (default 60)\n"
      "  --single-stage          generalize straight to M_nondet\n"
      "  --sequence <i|ii|iii>   multi-stage sequence (default i)\n"
      "  --ncsb <lazy|original>  SDBA complementation variant\n"
      "  --complement <auto|modular>\n"
      "                          module complementation strategy: 'modular'\n"
      "                          cuts each module down to the states that\n"
      "                          reach its accepting SCCs before picking a\n"
      "                          complement\n"
      "  --no-subsumption        disable the antichain optimization\n"
      "  --portfolio <K>         race the first K default configurations\n"
      "                          (1..%zu) and report the first conclusive\n"
      "                          verdict; per-config statistics are merged\n"
      "  --jobs <N>              portfolio worker threads (default: all\n"
      "                          cores; 1 = deterministic sequential mode)\n"
      "  --no-nonterm            disable the nontermination prover (a lasso\n"
      "                          unproven terminating reports UNKNOWN)\n"
      "  --witness               print the full nontermination witness\n"
      "  --max-states <N>        live-state cap per subtraction (0 =\n"
      "                          unlimited); capped subtractions degrade\n"
      "                          to word-only removal\n"
      "  --dot-cfg               print the CFG as Graphviz and exit\n"
      "  --dot-modules           print each module as Graphviz\n"
      "  --quiet                 print the verdict only\n"
      "  --stats-json <file>     write a versioned JSON run report\n"
      "                          ('-' = stdout)\n"
      "  --trace <file>          stream typed trace events as JSON lines\n"
      "                          ('-' = stdout)\n"
      "  --stats-deterministic   zero wall-clock values in the JSON report\n"
      "                          (byte-identical reports with --jobs 1)\n",
      Prog, PortfolioRosterSize);
}

/// Structured diagnostic for a malformed numeric option value; always a
/// usage error (exit 4), never a silent atoi-style zero.
[[noreturn]] void badValue(const char *Flag, const char *Val,
                           const char *Expected) {
  std::fprintf(stderr,
               "termcheck: error: invalid value '%s' for %s (expected %s)\n",
               Val, Flag, Expected);
  std::exit(4);
}

/// Strict non-negative seconds: rejects non-numeric text, trailing
/// garbage, negatives, NaN/inf, and overflow.
double parseSeconds(const char *Flag, const char *Val) {
  errno = 0;
  char *End = nullptr;
  double D = std::strtod(Val, &End);
  if (End == Val || *End != '\0' || errno == ERANGE || !(D >= 0) || D > 1e9)
    badValue(Flag, Val, "a number of seconds in [0, 1e9]");
  return D;
}

/// Strict decimal integer in [Min, Max]: rejects non-numeric text,
/// trailing garbage, and out-of-range (including overflowing) values.
long parseCount(const char *Flag, const char *Val, long Min, long Max,
                const char *Expected) {
  errno = 0;
  char *End = nullptr;
  long N = std::strtol(Val, &End, 10);
  if (End == Val || *End != '\0' || errno == ERANGE || N < Min || N > Max)
    badValue(Flag, Val, Expected);
  return N;
}

/// The whole front end; any exception escaping it is mapped to exit 2 by
/// main() below.
int runMain(int Argc, char **Argv) {
  AnalyzerOptions Opts;
  Opts.TimeoutSeconds = 60;
  bool DotCfg = false, DotModules = false, Quiet = false, Witness = false;
  bool StatsDeterministic = false;
  long PortfolioK = 0, JobsN = 0;
  const char *Path = nullptr;
  const char *StatsJsonPath = nullptr, *TracePath = nullptr;

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto NeedsValue = [&](const char *Name) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Name);
        std::exit(4);
      }
      return Argv[++I];
    };
    if (std::strcmp(Arg, "--timeout") == 0) {
      Opts.TimeoutSeconds = parseSeconds("--timeout", NeedsValue("--timeout"));
    } else if (std::strcmp(Arg, "--single-stage") == 0) {
      Opts.MultiStage = false;
    } else if (std::strcmp(Arg, "--sequence") == 0) {
      const char *V = NeedsValue("--sequence");
      if (std::strcmp(V, "i") == 0)
        Opts.Sequence = AnalyzerOptions::sequenceSkipDet();
      else if (std::strcmp(V, "ii") == 0)
        Opts.Sequence = AnalyzerOptions::sequenceSkipSemi();
      else if (std::strcmp(V, "iii") == 0)
        Opts.Sequence = AnalyzerOptions::sequenceAll();
      else {
        std::fprintf(stderr, "error: unknown sequence '%s'\n", V);
        return 4;
      }
    } else if (std::strcmp(Arg, "--ncsb") == 0) {
      const char *V = NeedsValue("--ncsb");
      if (std::strcmp(V, "lazy") == 0)
        Opts.Ncsb = NcsbVariant::Lazy;
      else if (std::strcmp(V, "original") == 0)
        Opts.Ncsb = NcsbVariant::Original;
      else {
        std::fprintf(stderr, "error: unknown NCSB variant '%s'\n", V);
        return 4;
      }
    } else if (std::strcmp(Arg, "--complement") == 0) {
      const char *V = NeedsValue("--complement");
      if (std::strcmp(V, "auto") == 0)
        Opts.Complement = ComplementStrategy::Auto;
      else if (std::strcmp(V, "modular") == 0)
        Opts.Complement = ComplementStrategy::Modular;
      else
        badValue("--complement", V, "'auto' or 'modular'");
    } else if (std::strcmp(Arg, "--no-subsumption") == 0) {
      Opts.UseSubsumption = false;
    } else if (std::strcmp(Arg, "--no-nonterm") == 0) {
      Opts.ProveNontermination = false;
    } else if (std::strcmp(Arg, "--witness") == 0) {
      Witness = true;
    } else if (std::strcmp(Arg, "--max-states") == 0) {
      Opts.MaxProductStates = static_cast<uint64_t>(
          parseCount("--max-states", NeedsValue("--max-states"), 0, LONG_MAX,
                     "a state count >= 0 (0 = unlimited)"));
    } else if (std::strcmp(Arg, "--portfolio") == 0) {
      const std::string Range = "a configuration count in [1, " +
                                std::to_string(PortfolioRosterSize) + "]";
      PortfolioK = parseCount("--portfolio", NeedsValue("--portfolio"), 1,
                              static_cast<long>(PortfolioRosterSize),
                              Range.c_str());
    } else if (std::strcmp(Arg, "--jobs") == 0) {
      JobsN = parseCount("--jobs", NeedsValue("--jobs"), 1, LONG_MAX,
                         "a positive worker-thread count");
    } else if (std::strcmp(Arg, "--stats-json") == 0) {
      StatsJsonPath = NeedsValue("--stats-json");
    } else if (std::strcmp(Arg, "--trace") == 0) {
      TracePath = NeedsValue("--trace");
    } else if (std::strcmp(Arg, "--stats-deterministic") == 0) {
      StatsDeterministic = true;
    } else if (std::strcmp(Arg, "--dot-cfg") == 0) {
      DotCfg = true;
    } else if (std::strcmp(Arg, "--dot-modules") == 0) {
      DotModules = true;
    } else if (std::strcmp(Arg, "--quiet") == 0) {
      Quiet = true;
    } else if (std::strcmp(Arg, "--help") == 0 ||
               std::strcmp(Arg, "-h") == 0) {
      usage(Argv[0]);
      return 0;
    } else if (Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      usage(Argv[0]);
      return 4;
    } else if (Path) {
      std::fprintf(stderr, "error: more than one input file\n");
      return 4;
    } else {
      Path = Arg;
    }
  }
  if (!Path) {
    usage(Argv[0]);
    return 4;
  }

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Path);
    return 4;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();

  ParseResult Parsed = parseProgram(Buf.str());
  if (!Parsed.ok()) {
    // `path:line:col: message` -- the shape editors and CI annotators
    // already know how to jump to. The parser message embeds the same
    // position (it must stand alone for library users); drop that prefix
    // here rather than saying it twice.
    if (Parsed.Line > 0) {
      std::string Msg = Parsed.Error;
      std::string Embedded = "line " + std::to_string(Parsed.Line) +
                             ", col " + std::to_string(Parsed.Col) + ": ";
      if (Msg.rfind(Embedded, 0) == 0)
        Msg = Msg.substr(Embedded.size());
      std::fprintf(stderr, "%s:%d:%d: error: %s\n", Path, Parsed.Line,
                   Parsed.Col, Msg.c_str());
    } else
      std::fprintf(stderr, "%s: error: %s\n", Path, Parsed.Error.c_str());
    return 4;
  }
  Program &P = *Parsed.Prog;

  auto SymName = [&P](Symbol S) { return P.statement(S).str(P.vars()); };
  if (DotCfg) {
    std::printf("%s", toDot(programToBuchi(P), SymName, "cfg").c_str());
    return 0;
  }

  // Output files are opened before the analysis, so an unwritable path is
  // a usage error up front rather than after a run of up to the budget.
  std::ofstream ReportFile;
  if (StatsJsonPath && std::strcmp(StatsJsonPath, "-") != 0) {
    ReportFile.open(StatsJsonPath);
    if (!ReportFile) {
      std::fprintf(stderr, "error: --stats-json: cannot open report file %s\n",
                   StatsJsonPath);
      return 4;
    }
  }

  // Optional trace stream: one JSONL sink shared by the analyzer (or all
  // racing portfolio entrants -- Trace is thread-safe) for the whole run.
  std::ofstream TraceFile;
  std::ostream *TraceOS = nullptr;
  std::unique_ptr<JsonlSink> TraceSinkPtr;
  std::unique_ptr<Trace> Tracer;
  if (TracePath) {
    TraceOS = &std::cout;
    if (std::strcmp(TracePath, "-") != 0) {
      TraceFile.open(TracePath);
      if (!TraceFile) {
        std::fprintf(stderr, "error: --trace: cannot open trace file %s\n",
                     TracePath);
        return 4;
      }
      TraceOS = &TraceFile;
    }
    TraceSinkPtr = std::make_unique<JsonlSink>(*TraceOS);
    Tracer = std::make_unique<Trace>(*TraceSinkPtr);
    Opts.Tracer = Tracer.get();
  }

  AnalysisResult Result;
  PortfolioRunResult PR;
  std::string WinnerNote;
  const bool UsedPortfolio = PortfolioK > 0;
  size_t JobsUsed = 1;
  if (UsedPortfolio) {
    PortfolioOptions PO;
    PO.Jobs = static_cast<size_t>(JobsN);
    PO.TimeoutSeconds = Opts.TimeoutSeconds;
    PO.DisableNonterm = !Opts.ProveNontermination;
    PO.MaxProductStates = Opts.MaxProductStates;
    PO.Tracer = Tracer.get();
    std::vector<PortfolioConfig> Configs =
        defaultPortfolio(static_cast<size_t>(PortfolioK));
    PR = runPortfolio(P, Configs, PO);
    Result = std::move(PR.Result);
    WinnerNote = PR.WinnerIndex < Configs.size()
                     ? "winner: " + PR.WinnerName
                     : "winner: none (no conclusive configuration)";
    Result.Seconds = PR.Seconds;
    JobsUsed = PO.Jobs != 0 ? PO.Jobs
                            : std::max(1u, std::thread::hardware_concurrency());
  } else {
    TerminationAnalyzer Analyzer(P, Opts);
    Result = Analyzer.run();
  }

  std::printf("%s: %s\n", P.name().c_str(), verdictName(Result.V));
  if (!Quiet) {
    if (!WinnerNote.empty())
      std::printf("%s\n", WinnerNote.c_str());
    std::printf("time: %.3f s, modules: %zu\n", Result.Seconds,
                Result.Modules.size());
    for (size_t I = 0; I < Result.Modules.size(); ++I) {
      const CertifiedModule &M = Result.Modules[I];
      std::printf("  M%zu: %s, %u states, f = %s\n", I + 1,
                  moduleKindName(M.Kind), M.A.numStates(),
                  M.Rank.str(P.vars()).c_str());
      if (DotModules)
        std::printf("%s", toDot(M.A, SymName,
                                "module" + std::to_string(I + 1))
                              .c_str());
    }
    if (Result.Counterexample) {
      std::printf("counterexample lasso:\n  stem:");
      for (Symbol S : Result.Counterexample->Stem)
        std::printf(" [%s]", SymName(S).c_str());
      std::printf("\n  loop:");
      for (Symbol S : Result.Counterexample->Loop)
        std::printf(" [%s]", SymName(S).c_str());
      std::printf("\n");
    }
    if (Result.Nonterm && !Witness)
      std::printf("nontermination certificate: %s (use --witness to print)\n",
                  Result.Nonterm->Kind == NontermKind::RecurrentSet
                      ? "closed recurrent set"
                      : "executable cycle");
    if (UsedPortfolio)
      PR.Merged.print(std::cout);
    else
      Result.Stats.print(std::cout);
  }
  if (Witness && Result.Nonterm)
    std::printf("%s", Result.Nonterm->str(P).c_str());

  if (StatsJsonPath) {
    RunReportInput In;
    In.ProgramName = P.name();
    In.SourcePath = Path;
    In.Result = &Result;
    In.Portfolio = UsedPortfolio ? &PR : nullptr;
    In.Jobs = JobsUsed;
    In.TimeoutSeconds = Opts.TimeoutSeconds;
    In.TraceEvents = Tracer ? Tracer->eventCount() : 0;
    RunReportOptions RO;
    RO.Deterministic = StatsDeterministic;
    std::ostream &Out = ReportFile.is_open() ? ReportFile : std::cout;
    writeRunReport(Out, In, RO);
    if (!Out.flush()) {
      std::fprintf(stderr, "error: --stats-json: cannot write report to %s\n",
                   StatsJsonPath);
      return 4;
    }
  }
  if (TraceOS && !TraceOS->flush()) {
    std::fprintf(stderr, "error: --trace: cannot write trace to %s\n",
                 TracePath);
    return 4;
  }

  return verdictExitCode(Result.V);
}

} // namespace

int main(int Argc, char **Argv) {
  // Last-resort containment: the engine contains its own faults (stage
  // fallbacks, portfolio quarantine), so anything landing here is either a
  // fault on a path with no softer fallback or a bug -- report one line to
  // stderr and exit 2 (the analysis is UNKNOWN), never std::terminate.
  try {
    return runMain(Argc, Argv);
  } catch (const EngineError &E) {
    std::fprintf(stderr, "termcheck: engine fault: %s\n", E.what());
    return 2;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "termcheck: unexpected error: %s\n", E.what());
    return 2;
  } catch (...) {
    std::fprintf(stderr, "termcheck: unexpected non-standard exception\n");
    return 2;
  }
}
