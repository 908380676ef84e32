//===- benchgen/CorpusEmit.cpp - On-disk batch corpora --------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "benchgen/CorpusEmit.h"

#include <cerrno>
#include <cstring>
#include <fstream>

#include <sys/stat.h>

using namespace termcheck;

namespace {

std::string num(int64_t V) { return std::to_string(V); }

/// Terminating: while (i > 0) i := i - Step; plus Pad busywork counters.
/// The oracle is exact for any Step >= 1 (f = i is a ranking function).
BenchProgram countdown(const std::string &Name, int Step, int Pad) {
  std::string Body = "    i := i - " + num(Step) + ";\n";
  for (int K = 0; K < Pad; ++K)
    Body += "    w" + num(K) + " := w" + num(K) + " + 1;\n";
  return {Name,
          "program " + Name + "(i) {\n  while (i > 0) {\n" + Body +
              "  }\n}\n",
          Expected::Terminating};
}

/// Terminating: triangular nest, inner bound reset from the outer counter.
BenchProgram nestedReset(const std::string &Name) {
  return {Name,
          "program " + Name + "(i) {\n"
          "  while (i > 0) {\n"
          "    j := i;\n"
          "    while (j > 0) { j := j - 1; }\n"
          "    i := i - 1;\n"
          "  }\n"
          "}\n",
          Expected::Terminating};
}

/// Terminating: every nondeterministic branch decreases i.
BenchProgram branching(const std::string &Name, int Branches) {
  std::string Src = "program " + Name + "(i) {\n  while (i > 0) {\n"
                    "    either { i := i - 1; }\n";
  for (int B = 2; B <= Branches; ++B)
    Src += "    or { i := i - " + num(B) + "; }\n";
  Src += "  }\n}\n";
  return {Name, Src, Expected::Terminating};
}

/// Terminating: sequential countdown phases, each seeding the next.
BenchProgram phases(const std::string &Name, int Count, int Carry) {
  std::string Src = "program " + Name + "(y0) {\n";
  for (int K = 0; K < Count; ++K) {
    std::string V = "y" + num(K);
    Src += "  while (" + V + " > 0) { " + V + " := " + V;
    Src += " - 1; }\n";
    if (K + 1 < Count) {
      Src += "  y" + num(K + 1) + " := " + V + " + " + num(Carry);
      Src += ";\n";
    }
  }
  Src += "}\n";
  return {Name, Src, Expected::Terminating};
}

/// Terminating: the stem pins j == Step, the loop needs that invariant.
BenchProgram invariantNeeded(const std::string &Name, int Step) {
  return {Name,
          "program " + Name + "(i) {\n  j := " + num(Step) +
              ";\n  while (i > 0) { i := i - j; }\n}\n",
          Expected::Terminating};
}

/// Terminating: a Depth-deep nest of constant-bound inner loops under one
/// decreasing outer counter. The program automaton develops a long chain
/// of non-accepting loop SCCs, so these instances stress the emptiness
/// search's SCC stacks rather than the rankers (every level has the
/// trivial ranking function of its own counter).
BenchProgram deepNest(const std::string &Name, int Depth, int Bound) {
  std::string Src = "program " + Name + "(i0) {\n";
  std::string Ind = "  ";
  Src += Ind + "while (i0 > 0) {\n";
  for (int K = 1; K <= Depth; ++K) {
    std::string V = "i" + num(K);
    Ind += "  ";
    Src += Ind + V + " := " + num(Bound) + ";\n";
    Src += Ind + "while (" + V + " > 0) {\n";
  }
  Src += Ind + "  i" + num(Depth) + " := i" + num(Depth) + " - 1;\n";
  for (int K = Depth; K >= 1; --K) {
    Src += Ind + "}\n";
    Ind.resize(Ind.size() - 2);
    Src += Ind + "  i" + num(K - 1) + " := i" + num(K - 1) + " - 1;\n";
  }
  Src += Ind + "}\n}\n";
  return {Name, Src, Expected::Terminating};
}

/// Nonterminating: i only grows inside the guard, so the guard region is
/// a closed recurrent set for any Step >= 1.
BenchProgram countUp(const std::string &Name, int Step) {
  return {Name,
          "program " + Name + "(i) { while (i > 0) { i := i + " +
              num(Step) + "; } }\n",
          Expected::Nonterminating};
}

/// Nonterminating: guard-true loop, trivially recurrent.
BenchProgram whileTrue(const std::string &Name) {
  return {Name,
          "program " + Name + "(i) { while (true) { i := i + 1; } }\n",
          Expected::Nonterminating};
}

/// Nonterminating: nonnegative drift; the recurrent set needs the stem
/// fact j >= 0 on top of the guard.
BenchProgram drift(const std::string &Name) {
  return {Name,
          "program " + Name + "(i, j) {\n"
          "  assume(j >= 0);\n"
          "  while (i > 0) { i := i + j; }\n"
          "}\n",
          Expected::Nonterminating};
}

} // namespace

std::vector<BenchProgram> termcheck::batchPrograms(Rng &R, size_t Count) {
  std::vector<BenchProgram> Out;
  Out.reserve(Count);
  for (size_t N = 0; N < Count; ++N) {
    // Stable, collision-free names: the template picks the suffix, the
    // index the prefix, and the parsed program name equals the file stem.
    std::string Id = "b";
    Id += num(static_cast<int64_t>(N));
    // Roughly 2:1 terminating:nonterminating, the shape of the paper's
    // benchmark population; constants randomized within oracle-safe
    // ranges.
    switch (R.below(10)) {
    case 0:
    case 1:
      Out.push_back(countdown(Id + "_cd", 1 + static_cast<int>(R.below(4)),
                              static_cast<int>(R.below(3))));
      break;
    case 2:
      Out.push_back(nestedReset(Id + "_nest"));
      break;
    case 3:
      Out.push_back(
          branching(Id + "_br", 2 + static_cast<int>(R.below(3))));
      break;
    case 4:
      Out.push_back(phases(Id + "_ph", 1 + static_cast<int>(R.below(3)),
                           2 + static_cast<int>(R.below(8))));
      break;
    case 5:
      Out.push_back(
          invariantNeeded(Id + "_inv", 1 + static_cast<int>(R.below(4))));
      break;
    case 6:
      Out.push_back(countUp(Id + "_up", 1 + static_cast<int>(R.below(4))));
      break;
    case 7:
      Out.push_back(whileTrue(Id + "_wt"));
      break;
    case 8:
      Out.push_back(deepNest(Id + "_deep", 2 + static_cast<int>(R.below(2)),
                             2 + static_cast<int>(R.below(3))));
      break;
    default:
      Out.push_back(drift(Id + "_drift"));
      break;
    }
  }
  return Out;
}

bool termcheck::writeBatchCorpus(const std::string &Dir,
                                 const std::vector<BenchProgram> &Programs,
                                 std::string *Error) {
  if (::mkdir(Dir.c_str(), 0777) != 0 && errno != EEXIST) {
    if (Error)
      *Error = "cannot create " + Dir + ": " + std::strerror(errno);
    return false;
  }
  for (const BenchProgram &P : Programs) {
    const std::string Path = Dir + "/" + P.Name + ".while";
    std::ofstream OS(Path);
    if (!OS) {
      if (Error)
        *Error = "cannot write " + Path;
      return false;
    }
    OS << P.Source;
    if (!OS.flush()) {
      if (Error)
        *Error = "write failed for " + Path;
      return false;
    }
  }
  const std::string ExpPath = Dir + "/EXPECTATIONS.txt";
  std::ofstream OS(ExpPath);
  if (!OS) {
    if (Error)
      *Error = "cannot write " + ExpPath;
    return false;
  }
  OS << "# Generated batch corpus expectations.\n"
     << "# Format: <program name as printed by the CLI> <VERDICT>\n";
  for (const BenchProgram &P : Programs)
    OS << P.Name << ' '
       << (P.Expect == Expected::Nonterminating ? "NONTERMINATING"
                                                : "TERMINATING")
       << '\n';
  if (!OS.flush()) {
    if (Error)
      *Error = "write failed for " + ExpPath;
    return false;
  }
  return true;
}
