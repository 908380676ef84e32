//===- driver/Main.cpp - termbench entry point ----------------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
///   termbench --workload scaled|batch|ncsb --seed N --seconds S --trace 0|1
///             [--root DIR] [--daemon PATH] [--spans FILE]
///
/// Runs one workload and prints, as its last line, one JSON object with
/// the keys correct, attempted, failed and metrics. The metric names and
/// units are read from BENCHMARK.json at the checkout root: --trace 0
/// reports every end-to-end metric, --trace 1 every per-layer metric
/// (metrics that do not apply to the workload read 0 and are listed as
/// such). Exit status 0 when every verdict matched its oracle and every
/// cross-check held, 1 when not, 2 on a usage or set-up error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

using namespace termbench;

double termbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

Tail termbench::tailOf(std::vector<double> V, size_t Failed) {
  // Failed samples are +inf: beyond every percentile.
  V.insert(V.end(), Failed, INFINITY);
  std::sort(V.begin(), V.end());
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  // A fixed ladder keeps the reported percentile the same across runs
  // whose sample counts differ a little.
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    size_t Idx = static_cast<size_t>(
        std::ceil(P / 100.0 * static_cast<double>(V.size()))) -
                 1;
    size_t Beyond = V.size() - 1 - Idx;
    if (Beyond >= 10 || P == 50.0) {
      T.Value = V[Idx];
      T.Percentile = P;
      T.Beyond = Beyond;
      return T;
    }
  }
  return T;
}

double termbench::peakRssMb(const std::string &Pid) {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the resident set
  // the process had before exec, which is the launcher's.
  std::ifstream In("/proc/" + Pid + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

bool termbench::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "termbench: %s\nusage: termbench --workload scaled|batch|ncsb "
               "--seed N --seconds S --trace 0|1 [--root DIR] "
               "[--daemon PATH] [--spans FILE]\n",
               Why);
  std::exit(2);
}

struct MetricSpec {
  std::string Name, Unit;
};

/// The end_to_end (or per_layer) metric list of BENCHMARK.json.
std::vector<MetricSpec> declaredMetrics(const std::string &Root,
                                        const char *Section) {
  std::string Text;
  termcheck::json::Value Doc;
  std::string Err;
  if (!readFile(Root + "/BENCHMARK.json", Text) ||
      !termcheck::json::parse(Text, Doc, &Err))
    usage(("cannot read " + Root + "/BENCHMARK.json " + Err).c_str());
  std::vector<MetricSpec> Out;
  if (const termcheck::json::Value *List = Doc.find(Section))
    for (const termcheck::json::Value &M : List->Arr)
      if (M.find("name") && M.find("unit"))
        Out.push_back({M.find("name")->Str, M.find("unit")->Str});
  if (Out.empty())
    usage((std::string("BENCHMARK.json lists no ") + Section).c_str());
  return Out;
}

/// A number as measured, with all its digits.
std::string num(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  // A daemon that exits early must surface as a failed write, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  Options O;
  bool HaveSeed = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    char *End = nullptr;
    errno = 0;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 0);
      HaveSeed = *V && !*End && errno == 0;
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      if (!*V || *End || !(O.Seconds > 0) || O.Seconds > 3600)
        usage("--seconds needs a number in (0, 3600]");
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") != 0 && std::strcmp(V, "1") != 0)
        usage("--trace needs 0 or 1");
      O.Traced = V[0] == '1';
      HaveTrace = true;
    } else if (A == "--root")
      O.Root = V;
    else if (A == "--daemon")
      O.Daemon = V;
    else if (A == "--spans")
      O.SpansPath = V;
    else
      usage(("unknown option " + A).c_str());
  }
  if (!HaveSeed || !HaveTrace)
    usage("--seed and --trace are required");
  if (O.Daemon.empty()) {
    std::string Self = Argv[0];
    size_t Slash = Self.rfind('/');
    O.Daemon = (Slash == std::string::npos ? std::string(".")
                                           : Self.substr(0, Slash)) +
               "/termcheckd";
  }
  std::vector<MetricSpec> Declared =
      declaredMetrics(O.Root, O.Traced ? "per_layer" : "end_to_end");

  Outcome Out;
  if (O.Workload == "scaled")
    Out = runScaled(O);
  else if (O.Workload == "batch")
    Out = runBatch(O);
  else if (O.Workload == "ncsb")
    Out = runNcsb(O);
  else
    usage("unknown workload (scaled, batch or ncsb)");

  for (const std::string &F : Out.Failures)
    std::printf("FAILED: %s\n", F.c_str());
  const double Attempted = static_cast<double>(std::max<uint64_t>(1, Out.Attempted));
  std::printf("%s: failed_share = %.6f 1 (%llu of %llu attempted)\n",
              O.Workload.c_str(), static_cast<double>(Out.Failed) / Attempted,
              static_cast<unsigned long long>(Out.Failed),
              static_cast<unsigned long long>(Out.Attempted));

  std::map<std::string, const Metric *> ByName;
  for (const Metric &M : Out.Metrics)
    ByName[M.Name] = &M;
  std::string Json = "{";
  std::vector<std::string> NotApplicable;
  for (const MetricSpec &S : Declared) {
    auto It = ByName.find(S.Name);
    double Value = 0;
    if (It != ByName.end()) {
      if (It->second->Unit != S.Unit) {
        std::fprintf(stderr, "termbench: %s measured in %s, declared %s\n",
                     S.Name.c_str(), It->second->Unit.c_str(), S.Unit.c_str());
        return 2;
      }
      Value = It->second->Value;
      std::printf("%s: %s = %s %s\n", O.Workload.c_str(), S.Name.c_str(),
                  num(Value).c_str(), S.Unit.c_str());
    } else if (!O.Traced) {
      std::fprintf(stderr, "termbench: %s does not measure %s\n",
                   O.Workload.c_str(), S.Name.c_str());
      return 2;
    } else {
      NotApplicable.push_back(S.Name);
    }
    if (Json.size() > 1)
      Json += ", ";
    Json += "\"" + S.Name + "\": {\"value\": " + num(Value) +
            ", \"unit\": \"" + S.Unit + "\"}";
  }
  Json += "}";
  if (!NotApplicable.empty()) {
    std::printf("%s: not applicable here (reported as 0):", O.Workload.c_str());
    for (const std::string &N : NotApplicable)
      std::printf(" %s", N.c_str());
    std::printf("\n");
  }

  const bool Correct = Out.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed), Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
