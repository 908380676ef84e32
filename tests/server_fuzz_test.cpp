//===- tests/server_fuzz_test.cpp - Protocol mutation fuzzing -------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Seeded random mutations of valid NDJSON request lines, pushed through
/// (a) the bare request parser and (b) handleRequestLine against a live
/// scheduler. The invariants are the robustness contract of DESIGN.md
/// section 14:
///
///  * no mutation crashes, hangs, or corrupts the session -- malformed
///    input surfaces as a structured EngineError / `error` / `rejected`
///    line, never as UB;
///  * every line handed to the session layer produces at least one
///    synchronous response line, except a drain request, which instead
///    tells the transport to stop reading (the one documented "drop");
///  * hostile shapes (deep nesting, oversized payloads, embedded NULs,
///    truncated UTF-8) all hit the hardened-parser caps.
///
/// Everything is deterministic: a fixed-seed splitmix64 PRNG drives the
/// mutations, so a failure reproduces by seed.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/Error.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

using namespace termcheck;
using namespace termcheck::server;

namespace {

/// splitmix64: tiny, deterministic, good enough to mangle bytes.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return N == 0 ? 0 : next() % N; }
};

const std::vector<std::string> &seedLines() {
  static const std::vector<std::string> Seeds = {
      R"({"op":"submit","id":"f1","program":"program p(i) { while (i > 0) { i := i - 1; } }","options":{"timeout_s":5}})",
      R"({"op":"submit","id":"f2","program":"program q(i) { skip; }","source":"fuzz.while","options":{"deterministic":true,"portfolio":2,"max_states":1000}})",
      R"({"op":"submit","id":"f3","program":"program r(i) { while (i > 0) { i := i - 1; } }","options":{"test_fault":"segv","no_nonterm":true}})",
      R"({"op":"stats"})",
      R"({"op":"health"})",
      R"({"op":"cancel","id":"f1"})",
  };
  return Seeds;
}

/// One random structural mutation of \p Line.
std::string mutate(const std::string &Line, Rng &R) {
  std::string M = Line;
  switch (R.below(8)) {
  case 0: // flip one byte
    if (!M.empty())
      M[R.below(M.size())] = static_cast<char>(R.next() & 0xff);
    break;
  case 1: // truncate
    M.resize(R.below(M.size() + 1));
    break;
  case 2: // insert a random byte (control chars and NULs included)
    M.insert(M.begin() + static_cast<long>(R.below(M.size() + 1)),
             static_cast<char>(R.next() & 0xff));
    break;
  case 3: { // duplicate a slice
    if (M.size() > 2) {
      size_t B = R.below(M.size() - 1);
      size_t Len = 1 + R.below(M.size() - B);
      M.insert(R.below(M.size()), M.substr(B, Len));
    }
    break;
  }
  case 4: { // delete a slice
    if (M.size() > 2) {
      size_t B = R.below(M.size() - 1);
      M.erase(B, 1 + R.below(M.size() - B));
    }
    break;
  }
  case 5: // splice two seeds together mid-line
  {
    const std::string &Other = seedLines()[R.below(seedLines().size())];
    M = M.substr(0, R.below(M.size() + 1)) +
        Other.substr(R.below(Other.size() + 1));
    break;
  }
  case 6: // smash in a deep-nesting bomb
  {
    std::string Bomb;
    size_t Depth = 8 + R.below(128);
    for (size_t I = 0; I < Depth; ++I)
      Bomb += "[{\"a\":";
    M.insert(R.below(M.size() + 1), Bomb);
    break;
  }
  case 7: // split a multi-byte UTF-8 sequence / inject a lone surrogate
    M.insert(R.below(M.size() + 1),
             R.below(2) == 0 ? "\xe2\x82" : "\"\\ud800\"");
    break;
  }
  return M;
}

TEST(ServerFuzz, ParserNeverCrashesOnMutatedLines) {
  ProtocolLimits L;
  Rng R(0x7e57ab1e0001ULL);
  size_t Parsed = 0, Refused = 0;
  for (const std::string &Seed : seedLines()) {
    // The unmutated seed must parse.
    EXPECT_NO_THROW(parseRequest(Seed, L)) << Seed;
    for (int I = 0; I < 400; ++I) {
      std::string M = mutate(Seed, R);
      // Stacked mutations, occasionally.
      if (R.below(4) == 0)
        M = mutate(M, R);
      try {
        (void)parseRequest(M, L);
        ++Parsed;
      } catch (const EngineError &) {
        ++Refused; // structured refusal is the expected outcome
      }
      // Anything else (std::bad_alloc, segfault, std::logic_error)
      // escapes and fails the test.
    }
  }
  // Sanity: the corpus exercised both sides.
  EXPECT_GT(Parsed, 0u);
  EXPECT_GT(Refused, 0u);
}

TEST(ServerFuzz, SessionAnswersEveryMutatedLineOrStopsOnDrain) {
  SchedulerConfig Cfg;
  Cfg.MaxActiveJobs = 2;
  Cfg.QueueCapacity = 8;
  Scheduler S(Cfg);
  ProtocolLimits L;
  Rng R(0x7e57ab1e0002ULL);

  size_t Lines = 0;
  for (const std::string &Seed : seedLines()) {
    for (int I = 0; I < 120; ++I) {
      std::string M = mutate(Seed, R);
      // An accepted submit's result line arrives later, from a pool thread:
      // the sink may run concurrently with this thread and after this
      // iteration, so it must own what it touches.
      auto Responses = std::make_shared<std::atomic<size_t>>(0);
      bool Drain = handleRequestLine(
          S, L, M, [Responses](const std::string &Line) {
            ++*Responses;
            EXPECT_FALSE(Line.empty());
            EXPECT_EQ(Line.back(), '\n') << "unterminated response line";
          });
      ++Lines;
      // The robustness contract: a response for every line, with exactly
      // two documented exceptions -- a drain request (the transport stops
      // reading instead) and a blank/whitespace-only line (keep-alive
      // noise the session skips).
      bool Blank = M.find_first_not_of(" \t\r\n") == std::string::npos;
      if (!Drain && !Blank) {
        EXPECT_GE(Responses->load(), 1u) << "silently dropped line: " << M;
      }
      if (Drain) {
        // A mutated line can still spell a valid drain; finish the drain
        // handshake and start a fresh scheduler-equivalent state by
        // accepting that this one stays draining (submissions now answer
        // `rejected`, which still satisfies the invariant).
        S.awaitIdle();
      }
    }
  }
  EXPECT_GT(Lines, 0u);
  S.beginDrain(/*Hard=*/true);
  S.awaitIdle();
}

TEST(ServerFuzz, HostileShapesHitTheHardenedCaps) {
  ProtocolLimits L;
  L.MaxLineBytes = 4096;
  L.MaxProgramBytes = 512;
  L.MaxJsonDepth = 16;
  L.MaxIdBytes = 32;

  // Oversized line.
  std::string Long = R"({"op":"stats","pad":")" + std::string(8192, 'x') +
                     "\"}";
  EXPECT_THROW((void)parseRequest(Long, L), EngineError);
  // Oversized program.
  std::string BigProg = R"({"op":"submit","id":"a","program":")" +
                        std::string(1024, 'p') + "\"}";
  EXPECT_THROW((void)parseRequest(BigProg, L), EngineError);
  // Deep nesting.
  std::string Deep = R"({"op":"stats","x":)";
  for (int I = 0; I < 64; ++I)
    Deep += "[";
  EXPECT_THROW((void)parseRequest(Deep, L), EngineError);
  // Oversized id.
  std::string LongId = R"({"op":"cancel","id":")" + std::string(64, 'i') +
                       "\"}";
  EXPECT_THROW((void)parseRequest(LongId, L), EngineError);
  // Embedded NUL mid-string.
  std::string Nul = R"({"op":"stats"})";
  Nul[5] = '\0';
  EXPECT_THROW((void)parseRequest(Nul, L), EngineError);
}

} // namespace
