//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of `layra-perfbench`: the metric catalogue every workload
/// reports against, the run options, order statistics, the in-memory span
/// log of traced runs, and the seeded input generators.  Everything here
/// lives outside the library: the benchmark times calls into Layra's
/// public functions and adds no tracing inside the program.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_PERFBENCH_BENCH_H
#define LAYRA_PERFBENCH_BENCH_H

#include "driver/BatchDriver.h"
#include "ir/Program.h"
#include "suites/Suites.h"
#include "support/Random.h"

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point A) { return msBetween(A, Clock::now()); }

/// Command-line configuration of one benchmark run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny inputs and short phases: exercises every code path in seconds.
  bool Smoke = false;
  /// Directory holding the `layra-serve` binary.
  std::string BinDir;
  /// Scratch directory for the server socket and the span dump.
  std::string WorkDir;
};

/// Name and unit of one reported metric.
struct MetricDef {
  std::string Name;
  std::string Unit;
};

/// Every end-to-end metric, printed by every workload in untraced runs.
const std::vector<MetricDef> &endToEndMetrics();
/// Every per-layer metric, printed by every workload in traced runs.
const std::vector<MetricDef> &perLayerMetrics();

/// What one workload run produced: the check verdict, the operation
/// tallies behind `fail_frac`, and the metric values by name.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> Metrics;
  /// First few check failures, echoed to stderr.
  std::vector<std::string> Problems;

  void fail(const std::string &What);
  void set(const std::string &Name, double Value) { Metrics[Name] = Value; }
  /// Sets the per-layer metrics of layers the workload does not reach to 0.
  void notReached(std::initializer_list<const char *> Names) {
    for (const char *Name : Names)
      Metrics[Name] = 0;
  }
};

/// Linear-interpolation quantile (the `statistics.quantiles` inclusive
/// method); 0 for an empty sample.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}
double mean(const std::vector<double> &Values);

/// High-water resident set size of process \p Pid (0 = this process), in
/// MiB, read from /proc/<pid>/status (VmHWM).
double peakRssMb(int Pid = 0);

/// One traced interval.  Spans of one task or request share RequestId;
/// Parent indexes the enclosing span in the same log (-1 for roots).
struct Span {
  const char *Name;
  double StartMs;
  double EndMs;
  int Parent;
  uint64_t RequestId;
};

/// In-memory span store of a traced run, written out once at the end.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled), Origin(Clock::now()) {}
  double nowMs() const { return msSince(Origin); }
  /// \p T on this log's clock.
  double msAt(Clock::time_point T) const { return msBetween(Origin, T); }
  /// Opens a span; returns its index (or -1 when disabled).
  int begin(const char *Name, int Parent, uint64_t RequestId);
  void end(int Index);
  /// Records an interval measured elsewhere (e.g. a server-side span).
  void add(const char *Name, double StartMs, double EndMs, int Parent,
           uint64_t RequestId);
  const std::vector<Span> &spans() const { return Spans; }
  /// Writes one JSON object per span to \p Path.
  bool write(const std::string &Path) const;

private:
  bool Enabled;
  Clock::time_point Origin;
  std::vector<Span> Spans;
};

/// Times one call as a span of \p Log and returns its duration in ms.
/// With a disabled log the call is timed but nothing is stored.
template <typename Fn>
double timed(SpanLog &Log, const char *Name, int Parent, uint64_t RequestId,
             Fn &&Call) {
  int Index = Log.begin(Name, Parent, RequestId);
  Clock::time_point Start = Clock::now();
  Call();
  double Ms = msSince(Start);
  Log.end(Index);
  return Ms;
}

//===----------------------------------------------------------------------===//
// Seeded inputs
//===----------------------------------------------------------------------===//

/// Structure seed of the batch-large family; also the baseline --seed
/// recorded in BENCHMARK.json.
inline constexpr uint64_t kBaselineSeed = 1;

/// batch-large inputs: one program per size class, each holding functions
/// built by chaining seeded `generateFunction` pieces over one shared
/// variable pool until the SSA form reaches the class's target size, then
/// loop-annotated.  Structure comes from kBaselineSeed so totals stay
/// comparable across runs; \p Seed perturbs every block's profile count.
layra::Suite makeLargeSuite(uint64_t Seed, bool Smoke);

/// A fresh JIT-sized function (eembc shape) in strict SSA with loop
/// frequencies, drawn from \p R.
layra::Function makeJitFunction(layra::Rng &R, const std::string &Name);

/// Profile drift: raises the frequency of one to three blocks.  Keeps the
/// structure, so the server's delta path must absorb it.
layra::Function frequencyEdit(const layra::Function &F, layra::Rng &R);

/// Structural edit: the entry terminator gains a use of an earlier entry
/// definition, which the delta path must refuse (a counted fallback).
/// Returns false when the function has no such definition.
bool structuralEdit(const layra::Function &F, layra::Function &Out);

/// Number of instructions of \p F.
uint64_t countInstrs(const layra::Function &F);

//===----------------------------------------------------------------------===//
// Solver-layer replay (Batch.cpp), shared by every workload's traced run
//===----------------------------------------------------------------------===//

/// One pipeline task: a function (SSA or not) at one register count.
struct TaskRef {
  const layra::Function *F;
  unsigned Regs;
};

/// Per-layer sums of one replay: milliseconds and counts.
struct LayerTally {
  double Ssa = 0, Liveness = 0, Interference = 0, Mcs = 0, Cliques = 0;
  double ProblemBuild = 0, Allocate = 0, SpillRewrite = 0, Assign = 0;
  double Pipeline = 0, Hash = 0, DriverRun = 0, Wall = 0;
  uint64_t Loads = 0, Stores = 0, Rounds = 0, Unfit = 0;
  uint64_t Edges = 0, OverDenseCap = 0, CliqueMembers = 0;
  layra::DriverCacheCounters Cache;
};

/// Runs every task through the library's public calls, checks the results
/// (round-0 feasibility, strict-SSA rewrite) and records each task's
/// pipeline outcome in \p Expected.  \p Detailed adds the separately timed
/// layer calls of a traced run.  With \p Jobs (the same tasks as batch
/// jobs) it finally times BatchDriver::run on a fresh one-worker driver
/// and checks its outcomes against \p Expected.
void replayTasks(const std::vector<TaskRef> &Tasks, bool Detailed,
                 const std::vector<layra::BatchJob> *Jobs, SpanLog &Log,
                 RunResult &Res, LayerTally &T,
                 std::vector<layra::TaskOutcome> &Expected);

/// Sets the solver-layer metrics (ir.*, graph.*, core.* except delta,
/// alloc.*) from a detailed replay of \p Tasks: times as mean ms per task,
/// counts as totals.
void setSolverLayerMetrics(const LayerTally &T,
                           const std::vector<TaskRef> &Tasks, RunResult &Res);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

RunResult runBatchSuites(const RunOptions &Opt);
RunResult runBatchLarge(const RunOptions &Opt);
RunResult runServeJit(const RunOptions &Opt);

} // namespace perfbench

#endif // LAYRA_PERFBENCH_BENCH_H
