//===- perfbench/src/Batch.cpp - batch-suites and batch-large --------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two offline-compile workloads.  Both push every (function, register
/// count) task of a set of suites through a fresh one-worker BatchDriver,
/// the path `layra-bench` takes; they differ in function size.
///
/// Untraced runs time whole BatchDriver::run passes.  Traced runs replay
/// every task through the library's public calls in pipeline order --
/// convertToSsa, Liveness, computeSpillCosts + buildInterference,
/// maximumCardinalitySearch + isPerfectEliminationOrder,
/// maximalCliquesChordal, buildSsaProblem, allocate, rewriteSpills,
/// assignRegisters -- then through runAllocationPipeline and finally
/// BatchDriver::run, and derive each layer's self time from those spans.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "alloc/Allocator.h"
#include "alloc/Pipeline.h"
#include "core/Assignment.h"
#include "core/ProblemBuilder.h"
#include "core/SolverWorkspace.h"
#include "driver/BatchDriver.h"
#include "graph/Chordal.h"
#include "ir/Interference.h"
#include "ir/Liveness.h"
#include "ir/SpillRewriter.h"
#include "ir/SsaBuilder.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>

using namespace layra;

namespace perfbench {
namespace {

/// Functions with more vertices than this fall back from the dense
/// bit-matrix adjacency (graph/Graph.h).
constexpr unsigned kDenseMatrixCap = 4096;

/// Inputs of one batch workload: the suites and the register sweep.
struct BatchInputs {
  std::vector<Suite> Suites;
  std::vector<unsigned> Regs;
};

std::vector<BatchJob> makeJobs(const BatchInputs &In) {
  std::vector<BatchJob> Jobs;
  for (const Suite &S : In.Suites)
    for (unsigned R : In.Regs) {
      BatchJob Job;
      Job.SuiteName = S.Name;
      Job.SuiteData = &S;
      Job.Target = ST231;
      Job.NumRegisters = R;
      Jobs.push_back(std::move(Job));
    }
  return Jobs;
}

std::vector<TaskRef> expandTasks(const std::vector<BatchJob> &Jobs) {
  std::vector<TaskRef> Tasks;
  for (const BatchJob &Job : Jobs)
    for (const SuiteProgram &Prog : Job.SuiteData->Programs)
      for (const Function &F : Prog.Functions)
        Tasks.push_back({&F, Job.NumRegisters});
  return Tasks;
}

bool sameOutcome(const TaskOutcome &A, const TaskOutcome &B) {
  return A.SpillCost == B.SpillCost && A.NumLoads == B.NumLoads &&
         A.NumStores == B.NumStores && A.LoadsFolded == B.LoadsFolded &&
         A.Rounds == B.Rounds && A.FinalMaxLive == B.FinalMaxLive &&
         A.Fits == B.Fits;
}

} // namespace

/// Runs every task through the public calls and checks the results.
/// \p Detailed adds the per-layer calls of the traced run; without it the
/// replay is the untraced run's output check (pipeline + round 0).
/// Fills \p Expected with each task's pipeline outcome.
void replayTasks(const std::vector<TaskRef> &Tasks, bool Detailed,
                 const std::vector<BatchJob> *Jobs, SpanLog &Log,
                 RunResult &Res, LayerTally &T,
                 std::vector<TaskOutcome> &Expected) {
  Clock::time_point Start = Clock::now();
  int Root = Log.begin("replay", -1, 0);
  std::unique_ptr<Allocator> Alloc = makeAllocator("bfpl");
  const PipelineOptions Options;
  // One reused workspace, as each BatchDriver worker has: without it every
  // call would allocate its scratch afresh and be charged for it.
  SolverWorkspace WS;
  Expected.assign(Tasks.size(), TaskOutcome());
  const Function *HashedFn = nullptr;
  uint64_t FnHash = 0;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    const TaskRef &Task = Tasks[I];
    int TaskSpan = Log.begin("task", Root, I);
    if (Detailed) {
      // The driver hashes each function once per run and each task once.
      if (Task.F != HashedFn) {
        T.Hash += timed(Log, "driver.hash", TaskSpan, I,
                        [&] { FnHash = hashFunction(*Task.F); });
        HashedFn = Task.F;
      }
      T.Hash += timed(Log, "driver.hash", TaskSpan, I, [&] {
        uint64_t Key = hashPipelineTask(FnHash, ST231, Task.Regs, Options);
        asm volatile("" : : "r"(Key));
      });
    }
    SsaConversion Ssa;
    T.Ssa += timed(Log, "ir.ssa", TaskSpan, I,
                   [&] { Ssa = convertToSsa(*Task.F); });
    const Function &F = Ssa.Ssa;

    if (Detailed) {
      // Untimed warm-up build, so the parts below and the whole build
      // further down both run on warm caches and allocator state; timing
      // the parts cold would charge first-touch costs to them alone.
      buildSsaProblem(F, ST231, Task.Regs, &WS);
      std::optional<Liveness> Live;
      T.Liveness += timed(Log, "ir.liveness", TaskSpan, I,
                          [&] { Live.emplace(F); });
      InterferenceInfo Info;
      T.Interference += timed(Log, "ir.interference", TaskSpan, I, [&] {
        std::vector<Weight> Costs = computeSpillCosts(F, ST231);
        Info = buildInterference(F, *Live, Costs, &WS,
                                 /*CollectPointSets=*/false);
      });
      EliminationOrder Peo;
      bool Perfect = false;
      T.Mcs += timed(Log, "graph.mcs", TaskSpan, I, [&] {
        Peo = maximumCardinalitySearch(Info.G, &WS);
        Perfect = isPerfectEliminationOrder(Info.G, Peo, &WS);
      });
      if (!Perfect)
        Res.fail(F.name() + ": strict-SSA interference graph is not chordal");
      CliqueCover Cover;
      T.Cliques += timed(Log, "graph.cliques", TaskSpan, I, [&] {
        Cover = maximalCliquesChordal(Info.G, Peo, &WS);
      });
      T.Edges += Info.G.numEdges();
      for (const std::vector<VertexId> &C : Cover.Cliques)
        T.CliqueMembers += C.size();
    }

    AllocationProblem P;
    T.ProblemBuild += timed(Log, "core.problem_build", TaskSpan, I, [&] {
      P = buildSsaProblem(F, ST231, Task.Regs, &WS);
    });
    AllocationResult Round0;
    T.Allocate += timed(Log, "alloc.allocate", TaskSpan, I,
                        [&] { Round0 = Alloc->allocate(P, &WS); });
    ++Res.Attempted;
    if (!isFeasibleAllocation(P, Round0.Allocated))
      Res.fail(F.name() + " R=" + std::to_string(Task.Regs) +
               ": round-0 allocation is infeasible");
    if (P.graph().numVertices() > kDenseMatrixCap)
      ++T.OverDenseCap;

    if (Detailed) {
      std::vector<char> Spilled(F.numValues(), 0);
      for (VertexId V = 0; V < P.graph().numVertices(); ++V)
        Spilled[V] = Round0.Allocated[V] ? 0 : 1;
      Function Rewritten = F;
      T.SpillRewrite += timed(Log, "ir.spill_rewrite", TaskSpan, I, [&] {
        rewriteSpills(Rewritten, Spilled);
      });
      T.Assign += timed(Log, "core.assign", TaskSpan, I, [&] {
        Assignment A = assignRegisters(P, Round0.Allocated);
        asm volatile("" : : "r"(A.RegistersUsed));
      });
    }

    PipelineResult R;
    T.Pipeline += timed(Log, "alloc.pipeline", TaskSpan, I, [&] {
      R = runAllocationPipeline(F, ST231, Task.Regs, Options, &WS);
    });
    std::string VerifyError;
    if (!verifyFunction(R.Rewritten, /*ExpectSsa=*/true, &VerifyError))
      Res.fail(F.name() + ": rewritten function is not strict SSA: " +
               VerifyError);
    if (R.Fits && R.FinalMaxLive > Task.Regs)
      Res.fail(F.name() + ": reports Fits above the register budget");
    if (R.Rewritten.numValues() > kDenseMatrixCap)
      ++T.OverDenseCap;
    TaskOutcome &Out = Expected[I];
    Out.SpillCost = R.TotalSpillCost;
    Out.NumLoads = R.Spills.NumLoads;
    Out.NumStores = R.Spills.NumStores;
    Out.LoadsFolded = R.LoadsFolded;
    Out.Rounds = R.Rounds;
    Out.FinalMaxLive = R.FinalMaxLive;
    Out.Fits = R.Fits;
    T.Loads += R.Spills.NumLoads;
    T.Stores += R.Spills.NumStores;
    T.Rounds += R.Rounds;
    T.Unfit += R.Fits ? 0 : 1;
    Log.end(TaskSpan);
  }
  if (!Jobs) {
    Log.end(Root);
    T.Wall = msSince(Start);
    return;
  }
  // The production path over the same tasks, on a fresh one-worker driver.
  DriverReport Report;
  T.DriverRun += timed(Log, "driver.run", Root, 0, [&] {
    BatchDriver Driver(1);
    Report = Driver.run(*Jobs);
    T.Cache = Driver.pipelineCacheCounters();
  });
  size_t I = 0;
  for (const JobReport &JR : Report.Jobs)
    for (const TaskResult &TR : JR.Tasks) {
      ++Res.Attempted;
      if (I >= Expected.size() || !sameOutcome(TR.Out, Expected[I]))
        Res.fail(TR.Function + ": BatchDriver outcome differs from the "
                               "direct pipeline run");
      ++I;
    }
  if (I != Tasks.size())
    Res.fail("BatchDriver report has the wrong number of tasks");
  Log.end(Root);
  T.Wall = msSince(Start);
}

void setSolverLayerMetrics(const LayerTally &T,
                           const std::vector<TaskRef> &Tasks,
                           RunResult &Res) {
  const double N = double(Tasks.size());
  Res.set("trace.tasks", N);
  Res.set("ir.ssa_ms", T.Ssa / N);
  Res.set("ir.liveness_ms", T.Liveness / N);
  Res.set("ir.interference_ms", T.Interference / N);
  Res.set("ir.spill_rewrite_ms", T.SpillRewrite / N);
  Res.set("ir.spill_loads", double(T.Loads));
  Res.set("ir.spill_stores", double(T.Stores));
  // Input size: distinct functions, in SSA form.
  uint64_t Values = 0, Instrs = 0;
  std::set<const Function *> Seen;
  for (const TaskRef &Task : Tasks) {
    if (!Seen.insert(Task.F).second)
      continue;
    Function Ssa = convertToSsa(*Task.F).Ssa;
    Values += Ssa.numValues();
    Instrs += countInstrs(Ssa);
  }
  Res.set("ir.values", double(Values));
  Res.set("ir.instrs", double(Instrs));
  Res.set("graph.mcs_ms", T.Mcs / N);
  Res.set("graph.cliques_ms", T.Cliques / N);
  Res.set("graph.edges", double(T.Edges));
  Res.set("graph.over_dense_cap", double(T.OverDenseCap));
  Res.set("core.problem_build_self_ms",
          (T.ProblemBuild - T.Liveness - T.Interference - T.Mcs - T.Cliques) /
              N);
  Res.set("core.clique_members", double(T.CliqueMembers));
  Res.set("core.assign_ms", T.Assign / N);
  Res.set("alloc.allocate_ms", T.Allocate / N);
  Res.set("alloc.pipeline_ms", T.Pipeline / N);
  Res.set("alloc.later_rounds_ms", (T.Pipeline - T.ProblemBuild - T.Allocate -
                                    T.SpillRewrite - T.Assign) /
                                       N);
  Res.set("alloc.rounds", double(T.Rounds));
  Res.set("alloc.unfit_tasks", double(T.Unfit));
}

namespace {

/// Shared driver of both batch workloads.  \p Build makes the inputs; it is
/// timed as set-up.  \p SuitesLayer says whether set-up is the `suites`
/// module's work (batch-suites) or the benchmark's own generator.
template <typename BuildFn>
RunResult runBatch(const RunOptions &Opt, BuildFn Build, bool SuitesLayer) {
  RunResult Res;
  // Set-up runs five times here (and once more before each timed pass);
  // the median is the reported set-up time.
  std::vector<double> SetupMs;
  BatchInputs In;
  for (unsigned Rep = 0; Rep < 5; ++Rep) {
    Clock::time_point Start = Clock::now();
    BatchInputs Fresh = Build();
    SetupMs.push_back(msSince(Start));
    In = std::move(Fresh);
  }
  std::vector<BatchJob> Jobs = makeJobs(In);
  std::vector<TaskRef> Tasks = expandTasks(Jobs);
  std::sort(In.Regs.begin(), In.Regs.end());
  const unsigned LowMaxRegs = In.Regs[(In.Regs.size() - 1) / 2];

  if (Opt.Trace) {
    // Tracing overhead: the replay with spans stored against the mean of
    // one replay without before it and one after it, cancelling drift.
    LayerTally Before, T, After;
    std::vector<TaskOutcome> Expected;
    SpanLog Off(false), On(true);
    replayTasks(Tasks, /*Detailed=*/true, &Jobs, Off, Res, Before, Expected);
    replayTasks(Tasks, /*Detailed=*/true, &Jobs, On, Res, T, Expected);
    replayTasks(Tasks, /*Detailed=*/true, &Jobs, Off, Res, After, Expected);
    const double PlainWall = (Before.Wall + After.Wall) / 2;
    On.write(Opt.WorkDir + "/spans-" + Opt.Workload + ".jsonl");

    const double N = double(Tasks.size());
    double DriverOverhead = T.DriverRun - T.Ssa - T.Pipeline;
    Res.set("suites.make_ms", SuitesLayer ? median(SetupMs) : 0);
    setSolverLayerMetrics(T, Tasks, Res);
    Res.set("driver.run_ms", T.DriverRun / N);
    Res.set("driver.overhead_ms", DriverOverhead / N);
    Res.set("driver.hash_ms", T.Hash / N);
    Res.set("driver.cache_hits", double(T.Cache.Hits));
    Res.set("driver.cache_misses", double(T.Cache.Misses));
    // Driver time that no timed public call explains: classification,
    // scheduling and report assembly.
    Res.set("unattributed_ms", (DriverOverhead - T.Hash) / N);
    Res.set("trace_overhead_pct", 100.0 * (T.Wall - PlainWall) / PlainWall);
    // Batch jobs carry no IR text, no bases and no server.
    Res.notReached(
        {"ir.parse_ms", "core.delta_classify_ms", "core.delta_build_ms",
         "driver.delta_hits", "driver.delta_fallbacks",
         "service.request_parse_ms", "service.accept_ms",
         "service.queue_wait_ms", "service.dispatch_ms", "service.driver_ms",
         "service.flush_net_ms", "service.queue_wait_ms.high",
         "service.rejected", "service.response_bytes",
         "service.new.accept_ms", "service.new.queue_wait_ms",
         "service.new.dispatch_ms", "service.new.driver_ms",
         "service.new.flush_net_ms", "service.edit.accept_ms",
         "service.edit.queue_wait_ms", "service.edit.dispatch_ms",
         "service.edit.driver_ms", "service.edit.flush_net_ms",
         "service.repeat.accept_ms", "service.repeat.queue_wait_ms",
         "service.repeat.dispatch_ms", "service.repeat.driver_ms",
         "service.repeat.flush_net_ms", "p50_ms.high", "p99_ms.low",
         "p99_ms.high", "goodput_rps", "gen_late_ms.low",
         "gen_late_ms.high"});
    std::printf("%s traced replay: %zu tasks, %.1f ms (%.1f ms without "
                "spans)\n",
                Opt.Workload.c_str(), Tasks.size(), T.Wall, PlainWall);
    // Self times along the production path sum to BatchDriver::run.
    std::printf("  shares of driver.run: ssa %.1f%%, liveness %.1f%%, "
                "interference %.1f%%, mcs %.1f%%, cliques %.1f%%, "
                "later rounds %.1f%%, driver overhead %.1f%%\n",
                100 * T.Ssa / T.DriverRun, 100 * T.Liveness / T.DriverRun,
                100 * T.Interference / T.DriverRun, 100 * T.Mcs / T.DriverRun,
                100 * T.Cliques / T.DriverRun,
                100 * Res.Metrics["alloc.later_rounds_ms"] * N / T.DriverRun,
                100 * DriverOverhead / T.DriverRun);
    // Round-0 layer calls only: later rounds run on rewritten functions
    // and are one bucket above, so this is where layer shares compare.
    double Round0 = T.Ssa + T.ProblemBuild + T.Allocate + T.SpillRewrite +
                    T.Assign;
    std::printf("  shares of round-0 layer time: ssa %.1f%%, liveness %.1f%%, "
                "interference %.1f%%, mcs %.1f%%, cliques %.1f%%, "
                "allocate %.1f%%\n",
                100 * T.Ssa / Round0, 100 * T.Liveness / Round0,
                100 * T.Interference / Round0, 100 * T.Mcs / Round0,
                100 * T.Cliques / Round0, 100 * T.Allocate / Round0);
    return Res;
  }

  // Output check, outside the timed passes: every task through the public
  // calls, recording the outcome each driver pass must reproduce.
  LayerTally Check;
  std::vector<TaskOutcome> Expected;
  SpanLog Off(false);
  replayTasks(Tasks, /*Detailed=*/false, nullptr, Off, Res, Check, Expected);

  // Timed passes.  Each job runs on its own fresh one-worker driver, in a
  // per-pass shuffled order; a job's time is its median over passes and a
  // task's latency its median solve time over passes.  Medians keep a
  // burst of host noise within a few passes from moving the result.
  std::vector<size_t> Offset(Jobs.size() + 1, 0);
  for (size_t J = 0; J < Jobs.size(); ++J)
    Offset[J + 1] = Offset[J] + Jobs[J].SuiteData->numFunctions();
  std::vector<std::vector<double>> JobMs(Jobs.size()), TaskMs(Tasks.size());
  std::vector<size_t> Order(Jobs.size());
  for (size_t J = 0; J < Jobs.size(); ++J)
    Order[J] = J;
  Rng Shuffle(Opt.Seed + 1);
  unsigned Passes = 0;
  Clock::time_point Start = Clock::now();
  do {
    // One more set-up between passes, so the set-up median spans the run
    // rather than its first fraction of a second.
    Clock::time_point SetupStart = Clock::now();
    Build();
    SetupMs.push_back(msSince(SetupStart));
    Shuffle.shuffle(Order);
    for (size_t J : Order) {
      BatchDriver Driver(1);
      Clock::time_point JobStart = Clock::now();
      DriverReport Report = Driver.run({Jobs[J]});
      JobMs[J].push_back(msSince(JobStart));
      const std::vector<TaskResult> &Results = Report.Jobs[0].Tasks;
      for (size_t K = 0; K < Results.size(); ++K) {
        size_t I = Offset[J] + K;
        ++Res.Attempted;
        if (I >= Offset[J + 1] || !sameOutcome(Results[K].Out, Expected[I]))
          Res.fail(Results[K].Function + ": outcome differs between runs");
        else
          TaskMs[I].push_back(Results[K].WallMs);
      }
    }
    ++Passes;
  } while (Passes < 3 || msSince(Start) < Opt.Seconds * 1000);

  double MedianPassMs = 0;
  for (const std::vector<double> &Ms : JobMs)
    MedianPassMs += median(Ms);
  std::vector<double> LowMs, AllMs;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    double Ms = median(TaskMs[I]);
    if (Tasks[I].Regs <= LowMaxRegs)
      LowMs.push_back(Ms);
    AllMs.push_back(Ms);
  }
  double SpillCost = 0, SpillOps = 0;
  for (const TaskOutcome &O : Expected) {
    SpillCost += double(O.SpillCost);
    SpillOps += double(O.NumLoads) + double(O.NumStores) -
                double(O.LoadsFolded);
  }
  double Rate = double(Tasks.size()) / (MedianPassMs / 1000.0);
  double TaskP50 = median(AllMs);
  Res.set("setup_s", median(SetupMs) / 1000.0);
  Res.set("fns_per_s", Rate);
  Res.set("spill_cost", SpillCost);
  Res.set("spill_ops", SpillOps);
  Res.set("peak_rss_mb", peakRssMb());
  // A batch has no offered load: `low` is the tight-budget half of the
  // register sweep, and every task is a first solve, so all three per-kind
  // p50s are the task p50.
  Res.set("p50_ms.low", median(LowMs));
  Res.set("new_p50_ms", TaskP50);
  Res.set("edit_p50_ms", TaskP50);
  Res.set("repeat_p50_ms", TaskP50);
  std::printf("%s: %zu tasks x %u passes, %.1f tasks/s, %llu of %zu tasks "
              "end above their register budget (Fits=false)\n",
              Opt.Workload.c_str(), Tasks.size(), Passes, Rate,
              static_cast<unsigned long long>(Check.Unfit), Tasks.size());
  return Res;
}

} // namespace

RunResult runBatchSuites(const RunOptions &Opt) {
  return runBatch(
      Opt,
      [&] {
        // The paper's fixed suites: --seed does not change them.
        BatchInputs In;
        In.Suites.push_back(makeEembc());
        In.Suites.push_back(makeSpec2000Int());
        In.Regs = {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
        if (Opt.Smoke) {
          for (Suite &S : In.Suites)
            S.Programs.resize(1);
          In.Regs = {4, 8};
        }
        return In;
      },
      /*SuitesLayer=*/true);
}

RunResult runBatchLarge(const RunOptions &Opt) {
  return runBatch(
      Opt,
      [&] {
        BatchInputs In;
        In.Suites.push_back(makeLargeSuite(Opt.Seed, Opt.Smoke));
        In.Regs = {8, 16};
        return In;
      },
      /*SuitesLayer=*/false);
}

} // namespace perfbench
