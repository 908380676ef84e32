//===- tests/dot_test.cpp - Graphviz export escaping ----------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Regression tests for the DOT escaping bugs: escapeDot used to pass
/// control characters through raw (a symbol name containing a newline
/// produced an unparsable label), and the graph id was interpolated
/// unquoted into `digraph <name>` (a name with spaces or dashes broke
/// Graphviz, and a crafted name could inject arbitrary DOT statements).
///
//===----------------------------------------------------------------------===//

#include "automata/Dot.h"

#include <gtest/gtest.h>

using namespace termcheck;

namespace {

/// One-state automaton whose single self-loop is labelled by the callback.
std::string renderWithLabel(const std::string &Label,
                            const std::string &GraphName) {
  Buchi A(1, 1);
  State S = A.addState();
  A.addInitial(S);
  A.addTransition(S, 0, S);
  return toDot(A, [&](Symbol) { return Label; }, GraphName);
}

} // namespace

TEST(Dot, ControlCharactersInLabelsAreEscaped) {
  std::string Out = renderWithLabel("a\nb\tc\rd\x01"
                                    "e",
                                    "g");
  // No raw control byte from the label may survive into the DOT text
  // (the document's own structural newlines are the only ones allowed).
  for (char C : Out) {
    if (C != '\n') {
      EXPECT_GE(static_cast<unsigned char>(C), 0x20u)
          << "raw control byte leaked into DOT output";
    }
  }
  EXPECT_NE(Out.find("a\\nb\\tc\\rd\\001e"), std::string::npos) << Out;
}

TEST(Dot, QuotesAndBackslashesStayEscaped) {
  std::string Out = renderWithLabel("x := \"1\" \\ y", "g");
  EXPECT_NE(Out.find("\\\"1\\\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\\\\ y"), std::string::npos) << Out;
}

TEST(Dot, GraphIdIsQuotedAndEscaped) {
  // Names that are not bare DOT identifiers must still yield a valid
  // header: the id is always written as a quoted, escaped string.
  EXPECT_NE(renderWithLabel("l", "my graph").find("digraph \"my graph\" {"),
            std::string::npos);
  EXPECT_NE(renderWithLabel("l", "a-b.2").find("digraph \"a-b.2\" {"),
            std::string::npos);
  // A name with a quote cannot break out of the header string.
  std::string Out = renderWithLabel("l", "g\" { injected");
  EXPECT_NE(Out.find("digraph \"g\\\" { injected\" {"), std::string::npos)
      << Out;
}

TEST(Dot, DefaultGraphNameStillPresent) {
  Buchi A(1, 1);
  State S = A.addState();
  A.addInitial(S);
  std::string Out = toDot(A);
  EXPECT_NE(Out.find("digraph \"buchi\" {"), std::string::npos) << Out;
}
