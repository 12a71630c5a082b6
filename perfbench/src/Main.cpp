//===- perfbench/src/Main.cpp - layra-perfbench entry point ----------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `layra-perfbench --workload NAME --seed N --seconds S --trace 0|1
///                  [--smoke] --bin-dir DIR --work-dir DIR`
///
/// Runs one workload and prints, as the last line of standard output, one
/// JSON object: {"correct", "attempted", "failed", "metrics"}.  Untraced
/// runs report every end-to-end metric, traced runs every per-layer
/// metric, each as {"value", "unit"}.  perfbench/run.py builds this binary
/// and passes the directories; see perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: layra-perfbench --workload batch-suites|batch-large|"
               "serve-jit --seed N --seconds S --trace 0|1 [--smoke] "
               "--bin-dir DIR --work-dir DIR\n",
               Error);
  std::exit(2);
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  if (!*Text || *Text == '-')
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno || *End)
    return false;
  Out = V;
  return true;
}

/// Prints a metric value with every significant digit.
void printNumber(double V) { std::printf("%.17g", V); }

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opt;
  bool HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(("missing value after " + Arg).c_str());
      return Argv[++I];
    };
    uint64_t N = 0;
    if (Arg == "--workload") {
      Opt.Workload = Next();
    } else if (Arg == "--seed") {
      if (!parseUnsigned(Next(), Opt.Seed))
        usage("--seed must be a non-negative integer");
    } else if (Arg == "--seconds") {
      if (!parseUnsigned(Next(), N) || N == 0 || N > 600)
        usage("--seconds must be an integer in [1, 600]");
      Opt.Seconds = double(N);
    } else if (Arg == "--trace") {
      if (!parseUnsigned(Next(), N) || N > 1)
        usage("--trace must be 0 or 1");
      Opt.Trace = N == 1;
      HaveTrace = true;
    } else if (Arg == "--smoke") {
      Opt.Smoke = true;
    } else if (Arg == "--bin-dir") {
      Opt.BinDir = Next();
    } else if (Arg == "--work-dir") {
      Opt.WorkDir = Next();
    } else {
      usage(("unknown argument " + Arg).c_str());
    }
  }
  if (Opt.Workload.empty() || !HaveTrace || Opt.BinDir.empty() ||
      Opt.WorkDir.empty())
    usage("--workload, --trace, --bin-dir and --work-dir are required");
  // A vanished server must surface as a failed write, not kill the run.
  std::signal(SIGPIPE, SIG_IGN);

  RunResult Res;
  if (Opt.Workload == "batch-suites")
    Res = runBatchSuites(Opt);
  else if (Opt.Workload == "batch-large")
    Res = runBatchLarge(Opt);
  else if (Opt.Workload == "serve-jit")
    Res = runServeJit(Opt);
  else
    usage(("unknown workload " + Opt.Workload).c_str());

  if (!Opt.Trace)
    Res.set("ok_frac", Res.Attempted ? 1.0 - double(Res.Failed) /
                                                 double(Res.Attempted)
                                     : 0.0);
  const std::vector<MetricDef> &Defs =
      Opt.Trace ? perLayerMetrics() : endToEndMetrics();
  // Every metric of the mode must be set by the workload; a workload sets
  // the per-layer metrics of layers it does not reach to 0 itself.
  bool Missing = false;
  for (const MetricDef &D : Defs)
    if (!Res.Metrics.count(D.Name)) {
      std::fprintf(stderr, "error: workload %s did not measure %s\n",
                   Opt.Workload.c_str(), D.Name.c_str());
      Missing = true;
    }
  if (Missing)
    return 1;
  for (const std::string &P : Res.Problems)
    std::fprintf(stderr, "check failed: %s\n", P.c_str());
  if (Res.Attempted == 0) {
    std::fprintf(stderr, "error: workload %s attempted nothing\n",
                 Opt.Workload.c_str());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Res.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(Res.Attempted),
              static_cast<unsigned long long>(Res.Failed));
  for (size_t I = 0; I < Defs.size(); ++I) {
    std::printf("%s\"%s\": {\"value\": ", I ? ", " : "", Defs[I].Name.c_str());
    printNumber(Res.Metrics[Defs[I].Name]);
    std::printf(", \"unit\": \"%s\"}", Defs[I].Unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
