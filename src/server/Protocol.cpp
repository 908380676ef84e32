//===- server/Protocol.cpp - termcheckd line protocol ---------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "support/Error.h"

#include <cmath>
#include <sstream>

using namespace termcheck;
using namespace termcheck::server;

const char *termcheck::server::rejectReasonName(RejectReason R) {
  switch (R) {
  case RejectReason::QueueFull:
    return "queue_full";
  case RejectReason::DuplicateId:
    return "duplicate_id";
  case RejectReason::OversizedProgram:
    return "oversized_program";
  case RejectReason::MalformedRequest:
    return "malformed_request";
  case RejectReason::Draining:
    return "draining";
  }
  return "unknown";
}

namespace {

[[noreturn]] void badRequest(const std::string &Msg) {
  throw EngineError(ErrorKind::ParseFailure, "request: " + Msg);
}

/// A non-negative finite seconds value; anything else is malformed.
double secondsField(const json::Value &V, const char *Name) {
  if (!V.isNumber() || !(V.Num >= 0) || !std::isfinite(V.Num) || V.Num > 1e9)
    badRequest(std::string("option '") + Name +
               "' must be a number of seconds in [0, 1e9]");
  return V.Num;
}

/// A non-negative integer below 2^53 (the doubles the parser hands back
/// represent such values exactly).
uint64_t countField(const json::Value &V, const char *Name) {
  if (!V.isNumber() || !(V.Num >= 0) || V.Num > 9e15 ||
      V.Num != std::floor(V.Num))
    badRequest(std::string("option '") + Name +
               "' must be a non-negative integer");
  return static_cast<uint64_t>(V.Num);
}

bool boolField(const json::Value &V, const char *Name) {
  if (!V.isBool())
    badRequest(std::string("option '") + Name + "' must be a boolean");
  return V.B;
}

JobOptions parseOptions(const json::Value &O) {
  JobOptions Opts;
  if (O.isNull())
    return Opts;
  if (!O.isObject())
    badRequest("'options' must be an object");
  for (const auto &[K, V] : O.Obj) {
    if (K == "timeout_s")
      Opts.TimeoutSeconds = secondsField(V, "timeout_s");
    else if (K == "deadline_s")
      Opts.DeadlineSeconds = secondsField(V, "deadline_s");
    else if (K == "portfolio")
      Opts.PortfolioK = static_cast<size_t>(countField(V, "portfolio"));
    else if (K == "deterministic")
      Opts.Deterministic = boolField(V, "deterministic");
    else if (K == "no_nonterm")
      Opts.NoNonterm = boolField(V, "no_nonterm");
    else if (K == "max_states")
      Opts.MaxStates = countField(V, "max_states");
    else if (K == "test_fault") {
      if (!V.isString() ||
          (V.Str != "segv" && V.Str != "abort" && V.Str != "oom" &&
           V.Str != "hang" && V.Str != "segv_first"))
        badRequest("option 'test_fault' must be one of "
                   "segv|abort|oom|hang|segv_first");
      Opts.TestFault = V.Str;
    } else
      badRequest("unknown option '" + K + "'");
  }
  return Opts;
}

} // namespace

Request termcheck::server::parseRequest(std::string_view Line,
                                        const ProtocolLimits &L) {
  if (L.MaxLineBytes != 0 && Line.size() > L.MaxLineBytes)
    throw EngineError(ErrorKind::ResourceExhausted,
                      "request line of " + std::to_string(Line.size()) +
                          " bytes exceeds the " +
                          std::to_string(L.MaxLineBytes) + "-byte limit");
  json::ParseLimits JL;
  JL.MaxDepth = L.MaxJsonDepth;
  JL.MaxBytes = L.MaxLineBytes;
  json::Value Doc = json::parseOrThrow(Line, JL);
  if (!Doc.isObject())
    badRequest("a request is one JSON object per line");

  const json::Value *OpV = Doc.find("op");
  if (!OpV || !OpV->isString())
    badRequest("missing string field 'op'");

  Request R;
  if (OpV->Str == "submit")
    R.O = Request::Op::Submit;
  else if (OpV->Str == "stats")
    R.O = Request::Op::Stats;
  else if (OpV->Str == "cancel")
    R.O = Request::Op::Cancel;
  else if (OpV->Str == "drain")
    R.O = Request::Op::Drain;
  else if (OpV->Str == "health")
    R.O = Request::Op::Health;
  else
    badRequest("unknown op '" + OpV->Str + "'");

  if (const json::Value *Id = Doc.find("id")) {
    if (!Id->isString())
      badRequest("'id' must be a string");
    if (Id->Str.empty())
      badRequest("'id' must be non-empty");
    if (L.MaxIdBytes != 0 && Id->Str.size() > L.MaxIdBytes)
      throw EngineError(ErrorKind::ResourceExhausted,
                        "'id' longer than " + std::to_string(L.MaxIdBytes) +
                            " bytes");
    R.Id = Id->Str;
  }

  if (R.O == Request::Op::Submit || R.O == Request::Op::Cancel)
    if (R.Id.empty())
      badRequest("'submit' and 'cancel' require an 'id'");

  if (R.O == Request::Op::Submit) {
    const json::Value *P = Doc.find("program");
    if (!P || !P->isString() || P->Str.empty())
      badRequest("'submit' requires a non-empty string 'program'");
    if (L.MaxProgramBytes != 0 && P->Str.size() > L.MaxProgramBytes)
      throw EngineError(ErrorKind::ResourceExhausted,
                        "program of " + std::to_string(P->Str.size()) +
                            " bytes exceeds the " +
                            std::to_string(L.MaxProgramBytes) +
                            "-byte limit");
    R.Program = P->Str;
    if (const json::Value *Src = Doc.find("source")) {
      if (!Src->isString())
        badRequest("'source' must be a string");
      R.Source = Src->Str;
    }
    const json::Value *O = Doc.find("options");
    R.Opts = parseOptions(O ? *O : json::Value());
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Response lines
//===----------------------------------------------------------------------===//

std::string termcheck::server::acceptedLine(const std::string &Id,
                                            size_t QueueDepth) {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("type", "accepted");
  W.field("id", Id);
  W.field("queue_depth", static_cast<int64_t>(QueueDepth));
  W.endObject();
  W.finish();
  return OS.str();
}

std::string termcheck::server::rejectedLine(const std::string &Id,
                                            RejectReason R,
                                            const std::string &Detail) {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("type", "rejected");
  if (Id.empty())
    W.fieldNull("id");
  else
    W.field("id", Id);
  W.field("reason", rejectReasonName(R));
  W.field("detail", Detail);
  W.endObject();
  W.finish();
  return OS.str();
}

std::string termcheck::server::protocolErrorLine(const std::string &Detail) {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("type", "error");
  W.field("detail", Detail);
  W.endObject();
  W.finish();
  return OS.str();
}

std::string termcheck::server::cancelAckLine(const std::string &Id,
                                             bool Found) {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("type", "cancel_ack");
  W.field("id", Id);
  W.field("found", Found);
  W.endObject();
  W.finish();
  return OS.str();
}

std::string termcheck::server::drainingLine() {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("type", "draining");
  W.endObject();
  W.finish();
  return OS.str();
}

std::string termcheck::server::drainedLine() {
  std::ostringstream OS;
  json::Writer W(OS, /*Pretty=*/false);
  W.beginObject();
  W.field("type", "drained");
  W.endObject();
  W.finish();
  return OS.str();
}
