//===- tests/server_protocol_test.cpp - termcheckd protocol gate ----------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The protocol-layer gate for the batch server (DESIGN.md section 14):
/// parseRequest's schema and hardening behavior, and handleRequestLine
/// driven directly -- no sockets, no processes -- against a real
/// Scheduler: malformed lines, oversized programs, duplicate ids,
/// queue_full backpressure, deadline-exceeded teardown, cancel acks, and
/// the drain handshake. Plus one socket case: a Unix listener with an open
/// connection stopped from two threads at once.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/Error.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace termcheck;
using namespace termcheck::server;

namespace {

/// Collects every response line a session emits; thread-safe because
/// result lines arrive from pool workers.
struct CaptureSink {
  std::mutex M;
  std::vector<std::string> Lines;
  LineSink sink() {
    return [this](const std::string &Ln) {
      std::lock_guard<std::mutex> Lock(M);
      Lines.push_back(Ln);
    };
  }
  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> Lock(M);
    return Lines;
  }
  /// The lines whose JSON contains `"key":"value"` (compact form).
  std::vector<std::string> with(const std::string &Key,
                                const std::string &Value) {
    std::vector<std::string> Out;
    const std::string Needle = "\"" + Key + "\":\"" + Value + "\"";
    for (const std::string &Ln : snapshot())
      if (Ln.find(Needle) != std::string::npos)
        Out.push_back(Ln);
    return Out;
  }
};

std::string submitLine(const std::string &Id, const std::string &Program,
                       const std::string &ExtraOptions = "") {
  std::string Opts = "{\"timeout_s\":20" +
                     (ExtraOptions.empty() ? "" : "," + ExtraOptions) + "}";
  return "{\"op\":\"submit\",\"id\":\"" + Id + "\",\"program\":\"" + Program +
         "\",\"options\":" + Opts + "}";
}

constexpr const char *FastProgram =
    "program fast(i) { while (i > 0) { i := i - 1; } }";
/// With the recurrence prover off this diverges-from-odd-inputs loop
/// refines until its budget runs out (the benchmarks/parity_trap.while
/// shape) -- a reliable active-slot holder for backpressure tests.
constexpr const char *SlowProgram =
    "program slow(i) { while (i != 0) { i := i - 2; } }";

//===----------------------------------------------------------------------===//
// parseRequest
//===----------------------------------------------------------------------===//

TEST(ParseRequest, SubmitCarriesAllOptions) {
  Request R = parseRequest(
      "{\"op\":\"submit\",\"id\":\"a\",\"program\":\"p\",\"source\":\"x.while"
      "\",\"options\":{\"timeout_s\":5,\"deadline_s\":9,\"portfolio\":4,"
      "\"deterministic\":true,\"no_nonterm\":true,\"max_states\":1000}}");
  EXPECT_EQ(R.O, Request::Op::Submit);
  EXPECT_EQ(R.Id, "a");
  EXPECT_EQ(R.Program, "p");
  EXPECT_EQ(R.Source, "x.while");
  EXPECT_DOUBLE_EQ(R.Opts.TimeoutSeconds, 5);
  EXPECT_DOUBLE_EQ(R.Opts.DeadlineSeconds, 9);
  EXPECT_EQ(R.Opts.PortfolioK, 4u);
  EXPECT_TRUE(R.Opts.Deterministic);
  EXPECT_TRUE(R.Opts.NoNonterm);
  EXPECT_EQ(R.Opts.MaxStates, 1000u);
}

TEST(ParseRequest, MalformedLinesThrowParseFailure) {
  for (const char *Bad : {
           "not json at all",
           "{\"op\":\"submit\"}",            // no id / program
           "{\"op\":\"frobnicate\"}",        // unknown op
           "{\"id\":\"a\"}",                 // no op
           "[1,2,3]",                        // not an object
           "{\"op\":\"submit\",\"id\":3,\"program\":\"p\"}", // id not string
       }) {
    try {
      (void)parseRequest(Bad);
      FAIL() << "no throw for: " << Bad;
    } catch (const EngineError &E) {
      EXPECT_EQ(E.kind(), ErrorKind::ParseFailure) << Bad;
    }
  }
}

TEST(ParseRequest, CapsThrowResourceExhausted) {
  ProtocolLimits L;
  L.MaxProgramBytes = 8;
  try {
    (void)parseRequest(submitLine("a", "program p(i) {}"), L);
    FAIL() << "oversized program accepted";
  } catch (const EngineError &E) {
    EXPECT_EQ(E.kind(), ErrorKind::ResourceExhausted);
  }
  ProtocolLimits L2;
  L2.MaxIdBytes = 2;
  try {
    (void)parseRequest(submitLine("abcdef", "p"), L2);
    FAIL() << "oversized id accepted";
  } catch (const EngineError &E) {
    EXPECT_EQ(E.kind(), ErrorKind::ResourceExhausted);
  }
}

//===----------------------------------------------------------------------===//
// handleRequestLine against a live scheduler
//===----------------------------------------------------------------------===//

SchedulerConfig smallConfig() {
  SchedulerConfig Cfg;
  Cfg.MaxActiveJobs = 1;
  Cfg.QueueCapacity = 2;
  return Cfg;
}

TEST(HandleRequestLine, MalformedLineGetsProtocolError) {
  Scheduler S(smallConfig());
  CaptureSink Sink;
  EXPECT_FALSE(handleRequestLine(S, {}, "}{ garbage", Sink.sink()));
  ASSERT_EQ(Sink.snapshot().size(), 1u);
  EXPECT_NE(Sink.snapshot()[0].find("\"type\":\"error\""), std::string::npos);
}

TEST(HandleRequestLine, BlankLinesAreIgnored) {
  Scheduler S(smallConfig());
  CaptureSink Sink;
  EXPECT_FALSE(handleRequestLine(S, {}, "", Sink.sink()));
  EXPECT_FALSE(handleRequestLine(S, {}, "   \t  ", Sink.sink()));
  EXPECT_TRUE(Sink.snapshot().empty());
}

TEST(HandleRequestLine, OversizedProgramRejectedWithItsId) {
  Scheduler S(smallConfig());
  CaptureSink Sink;
  ProtocolLimits L;
  L.MaxProgramBytes = 16;
  handleRequestLine(S, L, submitLine("big1", FastProgram), Sink.sink());
  auto Rejects = Sink.with("type", "rejected");
  ASSERT_EQ(Rejects.size(), 1u);
  EXPECT_NE(Rejects[0].find("\"id\":\"big1\""), std::string::npos);
  EXPECT_NE(Rejects[0].find("\"reason\":\"oversized_program\""),
            std::string::npos);
}

TEST(HandleRequestLine, DuplicateIdRejectedWhileFirstInFlight) {
  Scheduler S(smallConfig());
  CaptureSink Sink;
  // The first job holds its id until it is cancelled: a sub-millisecond
  // one could finish before the second line arrives.
  handleRequestLine(S, {},
                    submitLine("dup", SlowProgram, "\"no_nonterm\":true"),
                    Sink.sink());
  handleRequestLine(S, {}, submitLine("dup", FastProgram), Sink.sink());
  EXPECT_EQ(Sink.with("type", "accepted").size(), 1u);
  auto Rejects = Sink.with("reason", "duplicate_id");
  ASSERT_EQ(Rejects.size(), 1u);
  EXPECT_NE(Rejects[0].find("\"id\":\"dup\""), std::string::npos);
  handleRequestLine(S, {}, "{\"op\":\"cancel\",\"id\":\"dup\"}",
                    Sink.sink());
  S.awaitIdle();
  // The id is free again after completion.
  handleRequestLine(S, {}, submitLine("dup", FastProgram), Sink.sink());
  S.awaitIdle();
  EXPECT_EQ(Sink.with("type", "accepted").size(), 2u);
  EXPECT_EQ(Sink.with("type", "result").size(), 2u);
}

TEST(HandleRequestLine, QueueFullBackpressure) {
  Scheduler S(smallConfig()); // 1 active + queue of 2
  CaptureSink Sink;
  handleRequestLine(S, {}, submitLine("s0", SlowProgram, "\"no_nonterm\":true"),
                    Sink.sink());
  handleRequestLine(S, {}, submitLine("s1", FastProgram), Sink.sink());
  handleRequestLine(S, {}, submitLine("s2", FastProgram), Sink.sink());
  handleRequestLine(S, {}, submitLine("s3", FastProgram), Sink.sink());
  auto Rejects = Sink.with("reason", "queue_full");
  ASSERT_GE(Rejects.size(), 1u);
  EXPECT_NE(Rejects[0].find("\"id\":\"s3\""), std::string::npos);
  // The blocker burns its whole budget; cancel it instead of waiting.
  S.beginDrain(/*Hard=*/true);
  S.awaitIdle();
}

TEST(HandleRequestLine, DeadlineExceededWhileQueued) {
  Scheduler S(smallConfig());
  CaptureSink Sink;
  // The blocker holds the single active slot for its full 20 s budget;
  // the queued job's 50 ms deadline fires long before a slot frees.
  handleRequestLine(S, {}, submitLine("blk", SlowProgram, "\"no_nonterm\":true"),
                    Sink.sink());
  handleRequestLine(
      S, {}, submitLine("late", FastProgram, "\"deadline_s\":0.05"),
      Sink.sink());
  // Wait for the monitor to reap the queued job (period 25 ms).
  for (int Tries = 0; Tries < 100 && Sink.with("type", "result").empty();
       ++Tries)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto Results = Sink.with("status", "deadline_exceeded");
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_NE(Results[0].find("\"id\":\"late\""), std::string::npos);
  EXPECT_EQ(S.stats().DeadlineExceeded, 1u);
  S.beginDrain(/*Hard=*/true);
  S.awaitIdle();
}

TEST(HandleRequestLine, JobsOptionIsRejected) {
  // A portfolio job runs its entrants in roster order; there is no
  // per-job entrant parallelism to ask for, so `jobs` is an unknown
  // option like any other.
  Scheduler S(smallConfig());
  CaptureSink Sink;
  handleRequestLine(S, {},
                    submitLine("j3", FastProgram, "\"portfolio\":3,\"jobs\":3"),
                    Sink.sink());
  S.awaitIdle();
  EXPECT_TRUE(Sink.with("type", "accepted").empty());
  auto Rejects = Sink.with("reason", "malformed_request");
  ASSERT_EQ(Rejects.size(), 1u);
  EXPECT_NE(Rejects[0].find("\"id\":\"j3\""), std::string::npos);
  EXPECT_NE(Rejects[0].find("unknown option 'jobs'"), std::string::npos)
      << Rejects[0];
  EXPECT_EQ(S.stats().Accepted, 0u);
}

TEST(HandleRequestLine, ParseErrorIsAResultNotARejection) {
  Scheduler S(smallConfig());
  CaptureSink Sink;
  handleRequestLine(S, {}, submitLine("bad", "this is not WHILE"),
                    Sink.sink());
  S.awaitIdle();
  EXPECT_EQ(Sink.with("type", "accepted").size(), 1u);
  auto Results = Sink.with("status", "parse_error");
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_NE(Results[0].find("\"verdict\":null"), std::string::npos);
  EXPECT_EQ(S.stats().ParseErrors, 1u);
}

TEST(HandleRequestLine, StatsCancelAndDrain) {
  Scheduler S(smallConfig());
  CaptureSink Sink;
  EXPECT_FALSE(handleRequestLine(S, {}, "{\"op\":\"stats\"}", Sink.sink()));
  ASSERT_EQ(Sink.with("type", "stats").size(), 1u);
  EXPECT_NE(Sink.with("type", "stats")[0].find("termcheckd-protocol"),
            std::string::npos);

  // Cancel of an unknown id acks found=false.
  handleRequestLine(S, {}, "{\"op\":\"cancel\",\"id\":\"ghost\"}",
                    Sink.sink());
  auto Acks = Sink.with("type", "cancel_ack");
  ASSERT_EQ(Acks.size(), 1u);
  EXPECT_NE(Acks[0].find("\"found\":false"), std::string::npos);

  // Drain: returns true, emits draining, then rejects new submissions.
  EXPECT_TRUE(handleRequestLine(S, {}, "{\"op\":\"drain\"}", Sink.sink()));
  EXPECT_EQ(Sink.with("type", "draining").size(), 1u);
  handleRequestLine(S, {}, submitLine("post", FastProgram), Sink.sink());
  EXPECT_EQ(Sink.with("reason", "draining").size(), 1u);
  S.awaitIdle();
}

//===----------------------------------------------------------------------===//
// Listeners
//===----------------------------------------------------------------------===//

TEST(ServerListeners, ConcurrentStopsRunTheStopOnce) {
  // A signal drain of a socket-only termcheckd stops the listeners from
  // the drain helper and from the main thread at once. Both calls must
  // return, the open connection must be shut and the socket file removed;
  // under TSan the two must not race on the fds or the thread vectors.
  // The two stops overlap only in some rounds, so the test runs several.
  std::string Dir = testing::TempDir() + "tc_listeners_XXXXXX";
  ASSERT_NE(::mkdtemp(Dir.data()), nullptr);
  for (int Round = 0; Round < 20; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    ServerOptions O;
    O.Sched = smallConfig();
    O.UnixSocketPath = Dir + "/d.sock";
    Server Srv(O);
    std::string Error;
    ASSERT_TRUE(Srv.startListeners(&Error)) << Error;

    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(Fd, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, O.UnixSocketPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    ASSERT_EQ(
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0);
    // One round trip, so the connection is accepted and served before the
    // stop begins.
    const std::string Probe = "{\"op\":\"health\"}\n";
    ASSERT_EQ(::send(Fd, Probe.data(), Probe.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(Probe.size()));
    std::string Reply;
    char C;
    while (::recv(Fd, &C, 1, 0) == 1 && C != '\n')
      Reply.push_back(C);
    EXPECT_NE(Reply.find("\"type\":\"health\""), std::string::npos)
        << Reply;

    std::atomic<bool> Go{false};
    auto Stop = [&] {
      while (!Go.load())
        std::this_thread::yield();
      Srv.stopListeners();
    };
    std::thread First(Stop), Second(Stop);
    Go = true;
    First.join();
    Second.join();

    EXPECT_EQ(::recv(Fd, &C, 1, 0), 0) << "the connection was not shut";
    ::close(Fd);
    struct stat St;
    EXPECT_NE(::stat(O.UnixSocketPath.c_str(), &St), 0)
        << "socket file left behind";
  }
  ::rmdir(Dir.c_str());
}

} // namespace
