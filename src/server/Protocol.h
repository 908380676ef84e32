//===- server/Protocol.h - termcheckd line protocol -----------*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline-delimited JSON protocol `termcheckd` speaks (DESIGN.md
/// section 14). Every request and every response is exactly one JSON
/// object on one line; requests carry an `"op"`, responses a `"type"`.
///
/// Requests:
///   {"op":"submit","id":"j1","program":"program p(i){...}",
///    "options":{"timeout_s":10,"portfolio":3,"deadline_s":30,
///               "deterministic":true,"no_nonterm":false,
///               "max_states":0}}
///   {"op":"stats"}        -- immediate server-stats response
///   {"op":"health"}       -- load gauges + sandbox worker-fleet counters
///   {"op":"cancel","id":"j1"}
///   {"op":"drain"}        -- graceful drain, same as SIGTERM
///
/// Responses:
///   {"type":"accepted","id":...,"queue_depth":N}
///   {"type":"rejected","id":...,"reason":"queue_full",...}
///   {"type":"result","id":...,"status":"finished","report":{...}}
///   {"type":"stats",...}  {"type":"error",...}  {"type":"drained"}
///
/// Parsing runs under ProtocolLimits on top of the hardened JSON parser
/// (json::ParseLimits), so a hostile line -- megabytes of nesting, an
/// oversized program blob -- surfaces as a structured EngineError the
/// session answers with a `rejected`/`error` line, never as a stack
/// overflow or an unbounded allocation.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_SERVER_PROTOCOL_H
#define TERMCHECK_SERVER_PROTOCOL_H

#include "support/Json.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace termcheck {
namespace server {

/// Protocol document stamp (the stats and result lines carry it, so
/// stream consumers can version-check like report consumers do).
inline constexpr const char *ProtocolSchemaName = "termcheckd-protocol";
inline constexpr int ProtocolSchemaVersion = 1;

/// Hard caps applied to every request line before any work happens.
struct ProtocolLimits {
  /// Whole request line, bytes. Longer lines are answered with an error
  /// and discarded unread past the cap.
  size_t MaxLineBytes = 1 << 20;
  /// The `program` payload, bytes (a benchmark-suite program is < 1 KiB;
  /// this cap bounds the per-job parse and source copies).
  size_t MaxProgramBytes = 256 * 1024;
  /// JSON nesting of one request (requests are 3 levels deep).
  size_t MaxJsonDepth = 32;
  /// Job id length, bytes.
  size_t MaxIdBytes = 128;
};

/// Per-job analysis knobs of a submit request, all optional on the wire.
struct JobOptions {
  /// Per-entrant wall-clock analysis budget (the CLI's --timeout).
  double TimeoutSeconds = 60;
  /// Admission-to-completion deadline; a job still queued or running this
  /// many seconds after it was accepted is cancelled. 0 = none.
  double DeadlineSeconds = 0;
  /// Portfolio size: race the first K default configurations. 0 = run the
  /// single library-default configuration (the CLI without --portfolio).
  size_t PortfolioK = 0;
  /// Zero wall-clock-derived report fields (the CLI's
  /// --stats-deterministic).
  bool Deterministic = false;
  /// Disable the recurrence prover (the CLI's --no-nonterm).
  bool NoNonterm = false;
  /// Per-subtraction live-state cap (the CLI's --max-states); 0 = the
  /// server default.
  uint64_t MaxStates = 0;
  /// Test hook: make the worker fault on purpose ("segv", "abort", "oom",
  /// "hang", or "segv_first" -- crash only on the first attempt). Honored
  /// ONLY inside a sandboxed worker, where the fault costs exactly that
  /// job; the in-process path ignores it entirely. Empty = no fault.
  std::string TestFault;
};

/// One parsed request line.
struct Request {
  enum class Op : uint8_t { Submit, Stats, Cancel, Drain, Health };
  Op O = Op::Stats;
  std::string Id;      // Submit / Cancel
  std::string Program; // Submit: WHILE-language source text
  std::string Source;  // Submit: optional origin label (a client-side path)
  JobOptions Opts;     // Submit
};

/// Why a submission was refused. The wire name (rejectReasonName) is part
/// of the protocol; clients dispatch on it (queue_full means "back off and
/// retry", the others mean "fix the request").
enum class RejectReason : uint8_t {
  QueueFull,
  DuplicateId,
  OversizedProgram,
  MalformedRequest,
  Draining,
};

/// \returns the stable wire name ("queue_full", ...).
const char *rejectReasonName(RejectReason R);

/// Parses one request line under \p L. Throws EngineError:
/// ResourceExhausted when a cap is breached, ParseFailure for malformed
/// JSON or a request that does not follow the schema.
Request parseRequest(std::string_view Line, const ProtocolLimits &L = {});

//===----------------------------------------------------------------------===//
// Response lines (each returns one complete line including the '\n')
//===----------------------------------------------------------------------===//

std::string acceptedLine(const std::string &Id, size_t QueueDepth);
std::string rejectedLine(const std::string &Id, RejectReason R,
                         const std::string &Detail);
/// A malformed line the server could not even extract an id from.
std::string protocolErrorLine(const std::string &Detail);
/// Acknowledges a cancel request; \p Found says whether the id was in
/// flight (the job's `result` line still follows when it was).
std::string cancelAckLine(const std::string &Id, bool Found);
std::string drainingLine();
std::string drainedLine();

} // namespace server
} // namespace termcheck

#endif // TERMCHECK_SERVER_PROTOCOL_H
