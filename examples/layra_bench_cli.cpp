//===- examples/layra_bench_cli.cpp - Batch benchmark CLI -----------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `layra-bench`: the command-line front end of the batch-allocation driver
/// (driver/BatchDriver.h).  Expands suite x register-count sweeps into
/// per-function pipeline jobs, runs them on the work-stealing pool, and
/// reports aggregates as a table, JSON and/or CSV.
///
/// Usage:
///   layra-bench [--suite=NAME[,NAME...]] [--regs=LO..HI | --regs=A,B,C]
///               [--class-regs=NAME:N[,NAME:N...]] [--threads=N]
///               [--target=NAME] [--list-targets]
///               [--allocator=NAME] [--max-rounds=N] [--no-affinity]
///               [--no-fold] [--cache-cap=N] [--disk-cache=DIR]
///               [--disk-cache-cap=BYTES] [--json=FILE] [--csv=FILE]
///               [--tasks-csv=FILE] [--details] [--no-timing]
///               [--trace=FILE] [--metrics[=FILE]]
///               [--workspace-stats] [--quiet]
///
///   --suite      suites to run (default eembc); names as in makeSuite(),
///                plus the graph-only suite `random-chordal` (generated
///                chordal interference graphs solved directly through
///                BatchDriver::solveProblems -- no IR pipeline, so it
///                appears in the stdout summary but not in --json/--csv
///                reports, and interval-consuming allocators ls/bls are
///                rejected with a diagnostic)
///   --regs       register counts for class 0, a range `4..16` or a list
///                `1,2,4` (default 4..16); other register classes keep the
///                target's architectural counts
///   --class-regs per-class budget overrides by name, e.g. `vfp:8`
///                (applied to every job of the sweep)
///   --list-targets  print every known target with its register-class
///                table and cost model, then exit
///   --threads    pool size; 0 = hardware concurrency (default 0)
///   --allocator  pipeline spiller per round (default bfpl)
///   --cache-cap  bound the driver's content-hash caches to N entries each
///                with LRU eviction (default 0 = unbounded; eviction counts
///                appear as cache_evictions in the reports)
///   --disk-cache persist solved outcomes content-addressed under DIR
///                (service/DiskCache.h) and answer repeats from it: a
///                second identical sweep -- even in a fresh process --
///                skips the solver.  Timing-free reports stay
///                byte-identical, warm or cold
///   --disk-cache-cap  byte bound on --disk-cache with LRU eviction
///                (default 0 = unbounded)
///   --json/--csv write the DriverReport in that format ("-" = stdout)
///   --details    include per-function tasks in the JSON report
///   --no-timing  omit wall-clock fields: output is then byte-identical
///                across runs and thread counts
///   --trace      write a Chrome-trace-format JSON of every solver phase
///                span (load in chrome://tracing or Perfetto); with
///                --no-timing the trace uses deterministic sequence
///                timestamps, so at --threads=1 it is byte-identical
///                across runs (with more threads, the order in which tasks
///                land on threads changes from run to run, and the trace
///                with it)
///   --metrics    dump the run's per-phase span counts and self times
///                (layra.phase.<name>.{count,self_ms}) plus the driver's
///                workspace/cache gauges in Prometheus text format after
///                the run, to FILE or stderr
///   --workspace-stats  print the driver's workspace/cache gauges (arena
///                reuse accounting, pipeline-cache hit/miss/eviction
///                counts) to stderr; never part of the reports
///   --quiet      suppress the stdout summary table
///
/// Examples:
///   layra-bench --suite=eembc --regs=4..16 --threads=8 --json=out.json
///   layra-bench --suite=eembc,lao-kernels --regs=2,4,8 --no-timing --json=-
///
//===----------------------------------------------------------------------===//

#include "core/AllocationProblem.h"
#include "driver/BatchDriver.h"
#include "driver/ReportIO.h"
#include "graph/Generators.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "service/DiskCache.h"
#include "support/ParseUtil.h"
#include "support/Random.h"
#include "support/Table.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace layra;

namespace {

struct CliOptions {
  std::vector<std::string> Suites{"eembc"};
  std::vector<unsigned> Regs;
  std::vector<ClassRegOverride> ClassRegs;
  unsigned Threads = 0;
  std::string TargetName = "st231";
  PipelineOptions Pipeline;
  unsigned CacheCapacity = 0;
  std::string DiskCacheDir;
  uint64_t DiskCacheCapBytes = 0;
  std::string JsonPath;
  std::string CsvPath;
  std::string TasksCsvPath;
  bool Details = false;
  bool Timing = true;
  bool WorkspaceStats = false;
  bool Quiet = false;
  std::string TracePath;
  bool Metrics = false;
  std::string MetricsPath; ///< Empty = stderr.
};

[[noreturn]] void usage(const char *Argv0, const char *Error = nullptr) {
  if (Error)
    std::fprintf(stderr, "error: %s\n", Error);
  std::fprintf(
      stderr,
      "usage: %s [--suite=NAME[,NAME...]] [--regs=LO..HI|--regs=A,B,C]\n"
      "          [--class-regs=NAME:N[,NAME:N...]] [--threads=N]\n"
      "          [--target=NAME] [--list-targets]\n"
      "          [--allocator=NAME] [--max-rounds=N] [--no-affinity]\n"
      "          [--no-fold] [--cache-cap=N] [--disk-cache=DIR]\n"
      "          [--disk-cache-cap=BYTES] [--json=FILE] [--csv=FILE]\n"
      "          [--tasks-csv=FILE] [--details] [--no-timing]\n"
      "          [--trace=FILE] [--metrics[=FILE]]\n"
      "          [--workspace-stats] [--quiet]\n",
      Argv0);
  std::exit(2);
}

/// Largest register count / thread count / round count the CLI accepts;
/// generous for any real machine, small enough to make typos errors
/// instead of resource exhaustion.
constexpr unsigned kMaxCliValue = 1024;

CliOptions parseArgs(int Argc, char **Argv) {
  CliOptions Opt;
  Opt.Regs = {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      if (Arg.compare(0, Len, Prefix) != 0)
        return nullptr;
      return Arg.c_str() + Len;
    };
    if (const char *V = Value("--suite=")) {
      Opt.Suites = splitCommaList(V);
      if (Opt.Suites.empty())
        usage(Argv[0], "--suite must name at least one suite");
    } else if (const char *V = Value("--regs=")) {
      std::string Error;
      if (!parseRegList(V, kMaxCliValue, Opt.Regs, Error))
        usage(Argv[0], Error.c_str());
    } else if (const char *V = Value("--class-regs=")) {
      std::string Error;
      if (!parseClassRegList(V, kMaxCliValue, Opt.ClassRegs, Error))
        usage(Argv[0], Error.c_str());
    } else if (Arg == "--list-targets") {
      std::fputs(formatTargetList().c_str(), stdout);
      std::exit(0);
    } else if (const char *V = Value("--threads=")) {
      if (!parseBoundedUnsigned(V, kMaxCliValue, Opt.Threads))
        usage(Argv[0], "--threads must be an integer in [0, 1024]");
    } else if (const char *V = Value("--target=")) {
      Opt.TargetName = V;
    } else if (const char *V = Value("--allocator=")) {
      Opt.Pipeline.AllocatorName = V;
    } else if (const char *V = Value("--max-rounds=")) {
      if (!parseBoundedUnsigned(V, kMaxCliValue, Opt.Pipeline.MaxRounds) ||
          Opt.Pipeline.MaxRounds == 0)
        usage(Argv[0], "--max-rounds must be an integer in [1, 1024]");
    } else if (const char *V = Value("--cache-cap=")) {
      // Capacities are entry counts, not CLI-sized small numbers; allow
      // anything that fits comfortably in memory accounting.
      if (!parseBoundedUnsigned(V, 1u << 30, Opt.CacheCapacity))
        usage(Argv[0], "--cache-cap must be an integer in [0, 2^30]");
    } else if (const char *V = Value("--disk-cache=")) {
      if (!*V)
        usage(Argv[0], "--disk-cache needs a directory path");
      Opt.DiskCacheDir = V;
    } else if (const char *V = Value("--disk-cache-cap=")) {
      char *End = nullptr;
      errno = 0;
      unsigned long long Cap = std::strtoull(V, &End, 10);
      if (!std::isdigit(static_cast<unsigned char>(*V)) || (End && *End) ||
          errno == ERANGE)
        usage(Argv[0], "--disk-cache-cap must be a byte count >= 0");
      Opt.DiskCacheCapBytes = Cap;
    } else if (Arg == "--no-affinity") {
      Opt.Pipeline.AffinityBias = false;
    } else if (Arg == "--no-fold") {
      Opt.Pipeline.FoldMemoryOperands = false;
    } else if (const char *V = Value("--json=")) {
      if (!*V)
        usage(Argv[0], "--json needs a file path (or '-' for stdout)");
      Opt.JsonPath = V;
    } else if (const char *V = Value("--csv=")) {
      if (!*V)
        usage(Argv[0], "--csv needs a file path (or '-' for stdout)");
      Opt.CsvPath = V;
    } else if (const char *V = Value("--tasks-csv=")) {
      if (!*V)
        usage(Argv[0], "--tasks-csv needs a file path (or '-' for stdout)");
      Opt.TasksCsvPath = V;
    } else if (Arg == "--details") {
      Opt.Details = true;
    } else if (Arg == "--no-timing") {
      Opt.Timing = false;
    } else if (const char *V = Value("--trace=")) {
      if (!*V)
        usage(Argv[0], "--trace needs a file path");
      Opt.TracePath = V;
    } else if (Arg == "--metrics") {
      Opt.Metrics = true;
    } else if (const char *V = Value("--metrics=")) {
      if (!*V)
        usage(Argv[0], "--metrics needs a file path (or omit '=FILE' for "
                       "stderr)");
      Opt.Metrics = true;
      Opt.MetricsPath = V;
    } else if (Arg == "--workspace-stats") {
      Opt.WorkspaceStats = true;
    } else if (Arg == "--quiet") {
      Opt.Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
    } else {
      usage(Argv[0], ("unknown argument '" + Arg + "'").c_str());
    }
  }
  // A report written to stdout must be the only thing on stdout, or
  // downstream parsers choke.
  int StdoutReports = (Opt.JsonPath == "-" ? 1 : 0) +
                      (Opt.CsvPath == "-" ? 1 : 0) +
                      (Opt.TasksCsvPath == "-" ? 1 : 0);
  if (StdoutReports > 1)
    usage(Argv[0], "at most one of --json/--csv/--tasks-csv may be '-'");
  if (StdoutReports == 1)
    Opt.Quiet = true;
  return Opt;
}

/// Opens \p Path for writing; "-" means stdout.
std::FILE *openOutput(const std::string &Path) {
  if (Path == "-")
    return stdout;
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    std::exit(1);
  }
  return Out;
}

void closeOutput(std::FILE *Out) {
  if (Out != stdout)
    std::fclose(Out);
}

/// The one graph-only suite the CLI offers: deterministic generated chordal
/// interference graphs (subtrees of a random tree, the paper's SSA model),
/// solved straight through BatchDriver::solveProblems with the requested
/// allocator -- the same path the fig* harness drives.  Exercises the
/// allocator-vs-problem validation: interval-consuming allocators (ls/bls)
/// get a clean diagnostic here, since generated graphs carry no interval
/// table.
constexpr const char *kGraphSuiteName = "random-chordal";

/// Runs the graph-only suite over the register sweep and prints its own
/// summary table.  Exits with a usage-style diagnostic when the allocator
/// cannot consume graph-only instances.
void runGraphSuite(BatchDriver &Driver, const CliOptions &Opt) {
  // Fixed seed: the suite is part of the determinism contract, like every
  // generated IR suite.
  Rng R(0x6c61797261u); // "layra"
  std::vector<AllocationProblem> Base;
  for (unsigned I = 0; I < 16; ++I) {
    ChordalGenOptions G;
    G.NumVertices = 24 + I * 8;
    G.TreeSize = 20 + I * 6;
    Base.push_back(AllocationProblem::fromChordalGraph(
        randomChordalGraph(R, G), Opt.Regs.front()));
  }

  Table T({"suite", "regs", "instances", "spill cost"});
  for (unsigned Regs : Opt.Regs) {
    std::vector<AllocationProblem> Swept;
    Swept.reserve(Base.size());
    for (const AllocationProblem &P : Base)
      Swept.push_back(P.withBudgets({Regs}));
    std::vector<const AllocationProblem *> Instances;
    Instances.reserve(Swept.size());
    for (const AllocationProblem &P : Swept)
      Instances.push_back(&P);

    std::string Error;
    std::vector<AllocationResult> Results = Driver.solveProblems(
        Instances, Opt.Pipeline.AllocatorName, 50'000'000, Error);
    if (!Error.empty()) {
      std::fprintf(stderr, "error: suite '%s': %s\n", kGraphSuiteName,
                   Error.c_str());
      std::exit(2);
    }
    Weight Total = 0;
    for (const AllocationResult &Res : Results)
      Total += Res.SpillCost;
    T.addRow({kGraphSuiteName, std::to_string(Regs),
              std::to_string(Results.size()), std::to_string(Total)});
  }
  if (!Opt.Quiet)
    T.print(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opt = parseArgs(Argc, Argv);
  const TargetDesc *Target = targetByName(Opt.TargetName);
  if (!Target)
    usage(Argv[0], "unknown target");
  {
    std::unique_ptr<Allocator> Probe =
        makeAllocator(Opt.Pipeline.AllocatorName);
    if (!Probe) {
      std::string Error =
          "unknown allocator '" + Opt.Pipeline.AllocatorName + "' (known:";
      for (const std::string &N : allAllocatorNames())
        Error += " " + N;
      Error += ")";
      usage(Argv[0], Error.c_str());
    }
    // Allocator-vs-suite compatibility, up front: the graph-only suite has
    // no interval table for the linear-scan family to consume.
    if (Probe->requiresIntervals() &&
        std::find(Opt.Suites.begin(), Opt.Suites.end(), kGraphSuiteName) !=
            Opt.Suites.end())
      usage(Argv[0], ("allocator '" + Opt.Pipeline.AllocatorName +
                      "' requires live intervals, but suite '" +
                      kGraphSuiteName + "' is graph-only (no interval table)")
                         .c_str());
  }

  // Split off the graph-only suite; everything else resolves via
  // makeSuite() below.
  bool WantGraphSuite = false;
  std::vector<std::string> IrSuiteNames;
  for (const std::string &Name : Opt.Suites) {
    if (Name == kGraphSuiteName)
      WantGraphSuite = true;
    else
      IrSuiteNames.push_back(Name);
  }

  std::vector<std::string> Known = allSuiteNames();
  for (const std::string &Name : IrSuiteNames)
    if (std::find(Known.begin(), Known.end(), Name) == Known.end()) {
      std::string Error = "unknown suite '" + Name + "' (known:";
      for (const std::string &K : Known)
        Error += " " + K;
      Error += " ";
      Error += kGraphSuiteName;
      Error += ")";
      usage(Argv[0], Error.c_str());
    }

  // Class-regs overrides must name classes the target has; resolve once
  // so a typo fails before any generation work.
  if (!Opt.ClassRegs.empty()) {
    std::string Error;
    if (resolveClassBudgets(*Target, Opt.Regs.front(), Opt.ClassRegs,
                            &Error)
            .empty())
      usage(Argv[0], Error.c_str());
  }

  // Generate each IR suite once and share it across the register sweep.
  std::vector<Suite> Suites;
  Suites.reserve(IrSuiteNames.size());
  for (const std::string &Name : IrSuiteNames)
    Suites.push_back(makeSuite(Name));

  // Multi-class suites (mixed-classes) need a target with those register
  // files; fail with a message instead of a driver abort.
  for (const Suite &S : Suites)
    for (const SuiteProgram &Prog : S.Programs)
      for (const Function &F : Prog.Functions)
        if (std::string E = checkFunctionClasses(F, *Target); !E.empty()) {
          E = "suite '" + S.Name + "': " + E +
              "; pick a multi-class target (--list-targets)";
          usage(Argv[0], E.c_str());
        }

  std::vector<BatchJob> Jobs;
  for (const Suite &S : Suites)
    for (unsigned Regs : Opt.Regs) {
      BatchJob Job;
      Job.SuiteName = S.Name;
      Job.SuiteData = &S;
      Job.Target = *Target;
      Job.NumRegisters = Regs;
      Job.ClassRegs = Opt.ClassRegs;
      Job.Options = Opt.Pipeline;
      Jobs.push_back(Job);
    }

  // Open report outputs before the (potentially long) run so an unwritable
  // path fails fast instead of discarding the results.
  std::FILE *JsonOut = Opt.JsonPath.empty() ? nullptr : openOutput(Opt.JsonPath);
  std::FILE *CsvOut = Opt.CsvPath.empty() ? nullptr : openOutput(Opt.CsvPath);
  std::FILE *TasksCsvOut =
      Opt.TasksCsvPath.empty() ? nullptr : openOutput(Opt.TasksCsvPath);

  // A --no-timing trace uses sequence timestamps instead of a clock.  Only
  // a single-thread run is reproducible byte for byte: with more threads,
  // which thread solves which task (and so each span's tid and sequence
  // number) changes from run to run.
  if (!Opt.TracePath.empty())
    TraceCollector::global().enable(/*Deterministic=*/!Opt.Timing);

  BatchDriver Driver(Opt.Threads);
  if (Opt.CacheCapacity)
    Driver.setCacheCapacity(Opt.CacheCapacity);
  // Persistent result store: a second run over the same sweep -- even in a
  // fresh process -- answers from disk.  Reports stay byte-identical in
  // the default timing-free mode (cache-transparent accounting).
  std::unique_ptr<DiskCache> Disk;
  if (!Opt.DiskCacheDir.empty()) {
    Disk = std::make_unique<DiskCache>(Opt.DiskCacheDir,
                                       Opt.DiskCacheCapBytes);
    if (!Disk->valid()) {
      std::fprintf(stderr, "error: %s\n", Disk->error().c_str());
      return 1;
    }
    Driver.setOutcomeStore(Disk.get());
  }
  // Timing-free reports are the deterministic documents: they must not
  // depend on how warm any cache layer is (the disk store above makes a
  // warm start possible even in a fresh process).  Timed reports keep
  // the honest warm-cache view.  The run's phase sink feeds the timed
  // reports' phase_ms breakdowns and --metrics; plain --no-timing passes
  // none, so the default timing-free path does not even read clocks.
  std::vector<PhaseTotals> Phases;
  std::vector<PhaseTotals> *PhaseSink =
      Opt.Timing || Opt.Metrics ? &Phases : nullptr;
  DriverReport Report =
      Driver.run(Jobs, /*CacheTransparent=*/!Opt.Timing, PhaseSink);
  // The driver's own workspace/cache accounting as of this run (the graph
  // suite below reuses the driver), as gauges for --workspace-stats and
  // --metrics.  The workspace split is thread-count dependent (per-worker
  // arenas), hence gauges and never report fields.  The run's phase
  // totals, summed over jobs, join them as layra.phase.<name>.* series.
  const WorkspaceStats WS = Driver.workspaceStats();
  const DriverCacheCounters Cache = Driver.pipelineCacheCounters();
  MetricsSnapshot Snap;
  Snap.Gauges = {
      {"layra.workspace.bytes_reused", double(WS.BytesReused)},
      {"layra.workspace.bytes_allocated", double(WS.BytesAllocated)},
      {"layra.workspace.acquires", double(WS.Acquires)},
      {"layra.workspace.reuse_fraction", WS.reuseFraction()},
      {"layra.driver.cache.hits", double(Cache.Hits)},
      {"layra.driver.cache.misses", double(Cache.Misses)},
      {"layra.driver.cache.evictions", double(Cache.Evictions)},
      {"layra.driver.cache.entries", double(Cache.Entries)},
      {"layra.driver.cache.capacity", double(Cache.Capacity)},
  };
  if (PhaseSink) {
    PhaseTotals Sum;
    for (const PhaseTotals &Job : Phases)
      for (unsigned P = 0; P < kNumPhases; ++P) {
        Sum.Ms[P] += Job.Ms[P];
        Sum.Count[P] += Job.Count[P];
      }
    for (unsigned P = 0; P < kNumPhases; ++P) {
      std::string Name = std::string("layra.phase.") + phaseName(Phase(P));
      Snap.Counters.push_back({Name + ".count", Sum.Count[P]});
      Snap.Gauges.push_back({Name + ".self_ms", Sum.Ms[P]});
    }
  }

  if (!Opt.TracePath.empty()) {
    TraceCollector &TC = TraceCollector::global();
    TC.disable();
    std::FILE *TraceOut = openOutput(Opt.TracePath);
    if (!TC.writeTo(TraceOut)) {
      std::fprintf(stderr, "error: cannot write trace '%s'\n",
                   Opt.TracePath.c_str());
      return 1;
    }
    closeOutput(TraceOut);
    if (!Opt.Quiet)
      std::fprintf(stderr, "trace: %llu spans -> %s\n",
                   static_cast<unsigned long long>(TC.eventCount()),
                   Opt.TracePath.c_str());
  }

  if (!Opt.Quiet) {
    std::printf("layra-bench: %zu jobs (%zu suites x %zu register counts), "
                "%u threads, allocator %s on %s\n",
                Jobs.size(), Suites.size(), Opt.Regs.size(), Report.Threads,
                Opt.Pipeline.AllocatorName.c_str(), Target->Name);
    std::vector<std::string> Headers{"suite",      "regs",  "functions",
                                     "fit",        "spill cost", "loads",
                                     "stores",     "cache hits"};
    if (Opt.Timing)
      Headers.push_back("wall ms");
    Table T(std::move(Headers));
    for (const JobReport &JR : Report.Jobs) {
      std::vector<std::string> Row{
          JR.Job.SuiteName,
          std::to_string(JR.Job.NumRegisters),
          std::to_string(JR.Tasks.size()),
          std::to_string(JR.FunctionsFit),
          std::to_string(JR.TotalSpillCost),
          std::to_string(JR.TotalLoads),
          std::to_string(JR.TotalStores),
          std::to_string(JR.CacheHits)};
      if (Opt.Timing)
        Row.push_back(Table::num(JR.WallMsTotal));
      T.addRow(std::move(Row));
    }
    T.print(stdout);
    if (Opt.Timing)
      std::printf("total wall time: %s ms (cache: %llu entries, %llu hits, "
                  "%llu evicted)\n",
                  Table::num(Report.WallMs).c_str(),
                  static_cast<unsigned long long>(Report.CacheEntries),
                  static_cast<unsigned long long>(Report.CacheHits),
                  static_cast<unsigned long long>(Report.CacheEvictions));
  }

  if (!Opt.Quiet && Disk) {
    DiskCacheStats DS = Disk->stats();
    std::fprintf(stderr,
                 "disk cache: %llu hits, %llu misses, %llu writes; "
                 "%llu entries (%llu bytes) at %s\n",
                 static_cast<unsigned long long>(DS.Hits),
                 static_cast<unsigned long long>(DS.Misses),
                 static_cast<unsigned long long>(DS.Writes),
                 static_cast<unsigned long long>(DS.Entries),
                 static_cast<unsigned long long>(DS.Bytes),
                 Disk->directory().c_str());
  }

  // The graph-only suite runs through solveProblems on the same driver
  // (summary table only; it has no pipeline tasks for the reports).
  if (WantGraphSuite)
    runGraphSuite(Driver, Opt);

  if (Opt.WorkspaceStats || Opt.Metrics) {
    // Stderr (unless --metrics=FILE), so a report streamed to stdout stays
    // parseable.
    if (Opt.WorkspaceStats) {
      std::fputs(Snap.toText("layra.workspace.").c_str(), stderr);
      std::fputs(Snap.toText("layra.driver.cache.").c_str(), stderr);
    }
    if (Opt.Metrics) {
      std::string Text = Snap.toPrometheusText();
      if (Opt.MetricsPath.empty()) {
        std::fputs(Text.c_str(), stderr);
      } else {
        std::FILE *MetricsOut = openOutput(Opt.MetricsPath);
        std::fwrite(Text.data(), 1, Text.size(), MetricsOut);
        closeOutput(MetricsOut);
      }
    }
  }

  if (JsonOut) {
    writeDriverReportJson(JsonOut, Report, Opt.Timing, Opt.Details,
                          PhaseSink);
    closeOutput(JsonOut);
  }
  if (CsvOut) {
    writeDriverReportCsv(CsvOut, Report, Opt.Timing, PhaseSink);
    closeOutput(CsvOut);
  }
  if (TasksCsvOut) {
    writeDriverTasksCsv(TasksCsvOut, Report, Opt.Timing);
    closeOutput(TasksCsvOut);
  }
  return 0;
}
