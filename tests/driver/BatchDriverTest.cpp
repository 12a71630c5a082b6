//===- tests/driver/BatchDriverTest.cpp - Batch driver tests --------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"

#include "alloc/Allocator.h"
#include "core/AllocationProblem.h"
#include "driver/ReportIO.h"
#include "graph/Graph.h"
#include "ir/Dominators.h"
#include "ir/LoopInfo.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "obs/Trace.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

using namespace layra;

namespace {

/// The eembc jobs used by the determinism checks: full suite, two register
/// counts, default pipeline options.
std::vector<BatchJob> eembcJobs() {
  std::vector<BatchJob> Jobs;
  for (unsigned Regs : {4u, 8u}) {
    BatchJob Job;
    Job.SuiteName = "eembc";
    Job.NumRegisters = Regs;
    Jobs.push_back(Job);
  }
  return Jobs;
}

/// A tiny hand-built suite of generated functions (faster than the real
/// suites for cache-focused tests).
Suite tinySuite(unsigned NumFunctions, uint64_t Seed) {
  Suite S;
  S.Name = "tiny";
  SuiteProgram Prog;
  Prog.Name = "prog";
  Rng R(Seed);
  for (unsigned I = 0; I < NumFunctions; ++I) {
    ProgramGenOptions Opt;
    Opt.NumVars = 10;
    Opt.MaxBlocks = 12;
    Function F = generateFunction(R, Opt, "f" + std::to_string(I));
    DominatorTree Dom(F);
    LoopInfo Loops(F, Dom);
    Loops.annotate(F);
    Prog.Functions.push_back(std::move(F));
  }
  S.Programs.push_back(std::move(Prog));
  return S;
}

} // namespace

TEST(BatchDriverTest, EembcResultsAreBitIdenticalAcrossThreadCounts) {
  BatchDriver Serial(1), Parallel(8);
  DriverReport A = Serial.run(eembcJobs());
  DriverReport B = Parallel.run(eembcJobs());

  ASSERT_EQ(A.Jobs.size(), B.Jobs.size());
  EXPECT_EQ(A.Threads, 1u);
  EXPECT_EQ(B.Threads, 8u);

  // Field-level equality of every deterministic quantity.
  for (size_t J = 0; J < A.Jobs.size(); ++J) {
    const JobReport &JA = A.Jobs[J], &JB = B.Jobs[J];
    EXPECT_EQ(JA.TotalSpillCost, JB.TotalSpillCost);
    EXPECT_EQ(JA.TotalLoads, JB.TotalLoads);
    EXPECT_EQ(JA.TotalStores, JB.TotalStores);
    EXPECT_EQ(JA.TotalRounds, JB.TotalRounds);
    EXPECT_EQ(JA.FunctionsFit, JB.FunctionsFit);
    EXPECT_EQ(JA.CacheHits, JB.CacheHits);
    ASSERT_EQ(JA.Tasks.size(), JB.Tasks.size());
    for (size_t T = 0; T < JA.Tasks.size(); ++T) {
      EXPECT_EQ(JA.Tasks[T].Program, JB.Tasks[T].Program);
      EXPECT_EQ(JA.Tasks[T].Function, JB.Tasks[T].Function);
      EXPECT_EQ(JA.Tasks[T].Key, JB.Tasks[T].Key);
      EXPECT_EQ(JA.Tasks[T].CacheHit, JB.Tasks[T].CacheHit);
      EXPECT_EQ(JA.Tasks[T].Out.SpillCost, JB.Tasks[T].Out.SpillCost);
      EXPECT_EQ(JA.Tasks[T].Out.Rounds, JB.Tasks[T].Out.Rounds);
    }
  }

  // The acceptance-criterion form: serialized JSON without timing fields is
  // byte-identical (per-task detail included).
  std::string TextA = driverReportToJson(A, /*IncludeTiming=*/false,
                                         /*IncludeTasks=*/true)
                          .dump();
  std::string TextB = driverReportToJson(B, /*IncludeTiming=*/false,
                                         /*IncludeTasks=*/true)
                          .dump();
  // threads is configuration, not a measurement; normalize it away.
  size_t PosA = TextA.find("\"threads\": 1");
  size_t PosB = TextB.find("\"threads\": 8");
  ASSERT_NE(PosA, std::string::npos);
  ASSERT_NE(PosB, std::string::npos);
  TextA.replace(PosA, 12, "\"threads\": N");
  TextB.replace(PosB, 12, "\"threads\": N");
  EXPECT_EQ(TextA, TextB);
}

TEST(BatchDriverTest, DuplicateJobHitsCacheWithoutChangingTotals) {
  Suite S = tinySuite(6, 99);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 4;

  BatchDriver Driver(4);
  DriverReport Report = Driver.run({Job, Job});
  ASSERT_EQ(Report.Jobs.size(), 2u);
  const JobReport &First = Report.Jobs[0], &Second = Report.Jobs[1];

  // Second job is served entirely from the cache...
  EXPECT_EQ(Second.CacheHits, 6u);
  for (const TaskResult &T : Second.Tasks)
    EXPECT_TRUE(T.CacheHit);
  // ...without changing any totals.
  EXPECT_EQ(First.TotalSpillCost, Second.TotalSpillCost);
  EXPECT_EQ(First.TotalLoads, Second.TotalLoads);
  EXPECT_EQ(First.TotalStores, Second.TotalStores);
  EXPECT_EQ(First.TotalRounds, Second.TotalRounds);
  // Only the unique instances were solved and memoized.
  EXPECT_EQ(Driver.pipelineCacheSize(), 6u);
}

TEST(BatchDriverTest, CachePersistsAcrossRuns) {
  Suite S = tinySuite(5, 7);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 3;

  BatchDriver Driver(2);
  DriverReport First = Driver.run({Job});
  EXPECT_EQ(First.Jobs[0].CacheHits, 0u);
  DriverReport Second = Driver.run({Job});
  EXPECT_EQ(Second.Jobs[0].CacheHits, 5u);
  EXPECT_EQ(First.Jobs[0].TotalSpillCost, Second.Jobs[0].TotalSpillCost);
  // A different register count is a different instance: no hits.
  Job.NumRegisters = 5;
  DriverReport Third = Driver.run({Job});
  EXPECT_EQ(Third.Jobs[0].CacheHits, 0u);
}

TEST(BatchDriverTest, HashDistinguishesInstancesButIgnoresNames) {
  Suite S = tinySuite(2, 11);
  const Function &F = S.Programs[0].Functions[0];
  const Function &G = S.Programs[0].Functions[1];

  PipelineOptions Opt;
  const uint64_t HF = hashFunction(F), HG = hashFunction(G);
  uint64_t Base = hashPipelineTask(HF, ST231, 4, Opt);
  EXPECT_EQ(Base, hashPipelineTask(HF, ST231, 4, Opt));
  EXPECT_NE(Base, hashPipelineTask(HG, ST231, 4, Opt));
  EXPECT_NE(Base, hashPipelineTask(HF, ST231, 5, Opt));
  EXPECT_NE(Base, hashPipelineTask(HF, ARMv7, 4, Opt));
  PipelineOptions NoFold = Opt;
  NoFold.FoldMemoryOperands = false;
  EXPECT_NE(Base, hashPipelineTask(HF, ST231, 4, NoFold));

  // Renaming values does not change the structural hash.
  Function Renamed = F;
  for (ValueId V = 0; V < Renamed.numValues(); ++V)
    Renamed.setValueName(V, "renamed" + std::to_string(V));
  EXPECT_EQ(hashFunction(F), hashFunction(Renamed));
}

TEST(BatchDriverTest, SolveProblemsMatchesDirectAllocation) {
  Suite S = tinySuite(4, 21);
  std::vector<NamedProblem> Problems = chordalProblems(S, ST231, 4);
  std::vector<const AllocationProblem *> Ptrs;
  for (const NamedProblem &P : Problems)
    Ptrs.push_back(&P.P);

  BatchDriver Driver(4);
  for (const char *Name : {"bfpl", "gc", "lh"}) {
    std::string Error;
    std::vector<AllocationResult> Batch =
        Driver.solveProblems(Ptrs, Name, 0, Error);
    EXPECT_TRUE(Error.empty()) << Error;
    ASSERT_EQ(Batch.size(), Problems.size());
    for (size_t I = 0; I < Problems.size(); ++I) {
      AllocationResult Direct = makeAllocator(Name)->allocate(Problems[I].P);
      EXPECT_EQ(Batch[I].SpillCost, Direct.SpillCost) << Name;
      EXPECT_EQ(Batch[I].Allocated, Direct.Allocated) << Name;
    }
  }
}

TEST(BatchDriverTest, SolveProblemsReportsUnknownAllocatorWithoutDying) {
  Suite S = tinySuite(2, 41);
  std::vector<NamedProblem> Problems = chordalProblems(S, ST231, 4);
  std::vector<const AllocationProblem *> Ptrs;
  for (const NamedProblem &P : Problems)
    Ptrs.push_back(&P.P);

  BatchDriver Driver(2);
  std::string Error;
  std::vector<AllocationResult> Out =
      Driver.solveProblems(Ptrs, "not-an-allocator", 0, Error);
  EXPECT_TRUE(Out.empty());
  EXPECT_NE(Error.find("unknown allocator"), std::string::npos) << Error;
  EXPECT_NE(Error.find("not-an-allocator"), std::string::npos) << Error;
  // The message enumerates what *would* work.
  EXPECT_NE(Error.find("gc"), std::string::npos) << Error;

  // The same driver is still usable afterwards.
  Error.clear();
  std::vector<AllocationResult> Good =
      Driver.solveProblems(Ptrs, "bfpl", 0, Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Good.size(), Problems.size());
}

TEST(BatchDriverTest, SolveProblemsRejectsIntervalAllocatorsOnGraphOnlyInput) {
  // Problems built straight from a graph carry no interval table; linear
  // scan must be refused up front with a diagnostic, not a process abort
  // from inside the worker pool.
  Graph G(6);
  for (VertexId V = 0; V < 6; ++V)
    G.setWeight(V, 1 + V);
  for (VertexId V = 1; V < 6; ++V)
    G.addEdge(V - 1, V);
  AllocationProblem P = AllocationProblem::fromChordalGraph(G, 2);
  ASSERT_FALSE(P.Intervals.has_value());
  std::vector<const AllocationProblem *> Ptrs{&P};

  BatchDriver Driver(2);
  for (const char *Name : {"ls", "bls"}) {
    std::string Error;
    std::vector<AllocationResult> Out =
        Driver.solveProblems(Ptrs, Name, 0, Error);
    EXPECT_TRUE(Out.empty()) << Name;
    EXPECT_NE(Error.find("requires live intervals"), std::string::npos)
        << Name << ": " << Error;
  }
  // Graph-based allocators remain fine on the same input.
  std::string Error;
  std::vector<AllocationResult> Out =
      Driver.solveProblems(Ptrs, "bfpl", 0, Error);
  EXPECT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Out.size(), 1u);
}

TEST(BatchDriverTest, CacheCapacityBoundsEntriesAndCountsEvictions) {
  Suite S = tinySuite(6, 123);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 4;

  BatchDriver Driver(2);
  Driver.setCacheCapacity(4);
  DriverReport First = Driver.run({Job});
  // Six unique solves flowed through a four-entry cache.
  EXPECT_EQ(Driver.pipelineCacheSize(), 4u);
  EXPECT_EQ(First.CacheEntries, 4u);
  EXPECT_EQ(First.CacheEvictions, 2u);
  EXPECT_EQ(First.Jobs[0].CacheHits, 0u);
  // Totals are unaffected by the bound: eviction costs re-solves, never
  // correctness.
  BatchDriver Unbounded(2);
  DriverReport Reference = Unbounded.run({Job});
  EXPECT_EQ(First.Jobs[0].TotalSpillCost, Reference.Jobs[0].TotalSpillCost);
  EXPECT_EQ(First.Jobs[0].TotalLoads, Reference.Jobs[0].TotalLoads);

  // Re-running re-solves the evicted two; the cache stays at capacity.
  DriverReport Second = Driver.run({Job});
  EXPECT_EQ(Driver.pipelineCacheSize(), 4u);
  EXPECT_EQ(Second.Jobs[0].TotalSpillCost, Reference.Jobs[0].TotalSpillCost);

  DriverCacheCounters Counters = Driver.pipelineCacheCounters();
  EXPECT_EQ(Counters.Capacity, 4u);
  EXPECT_EQ(Counters.Entries, 4u);
  EXPECT_GT(Counters.Evictions, 2u);
  EXPECT_GT(Counters.Hits + Counters.Misses, 0u);

  // Shrinking the bound trims immediately.
  Driver.setCacheCapacity(2);
  EXPECT_EQ(Driver.pipelineCacheSize(), 2u);
}

TEST(BatchDriverTest, SolveProblemsSharesDuplicatesWithinACall) {
  Suite S = tinySuite(5, 31);
  std::vector<NamedProblem> Problems = chordalProblems(S, ST231, 4);
  // Every instance twice, interleaved: each twin must get its original's
  // result, in input order.
  std::vector<const AllocationProblem *> Ptrs;
  for (const NamedProblem &P : Problems)
    Ptrs.push_back(&P.P);
  for (const NamedProblem &P : Problems)
    Ptrs.push_back(&P.P);

  BatchDriver Driver(2);
  std::string Error;
  std::vector<AllocationResult> Batch =
      Driver.solveProblems(Ptrs, "bfpl", 0, Error);
  EXPECT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Batch.size(), Ptrs.size());
  for (size_t I = 0; I < Ptrs.size(); ++I) {
    AllocationResult Direct = makeAllocator("bfpl")->allocate(*Ptrs[I]);
    EXPECT_EQ(Batch[I].SpillCost, Direct.SpillCost);
    EXPECT_EQ(Batch[I].Allocated, Direct.Allocated);
  }
}

TEST(BatchDriverTest, TransparentReportsAreIdenticalHoweverWarmTheCache) {
  Suite S = tinySuite(6, 77);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 4;

  auto Serialize = [](const DriverReport &R) {
    return driverReportToJson(R, /*IncludeTiming=*/false,
                              /*IncludeTasks=*/true)
        .dump();
  };

  // Fresh driver, non-transparent: the baseline a one-shot run reports.
  BatchDriver Fresh(2);
  std::string Baseline = Serialize(Fresh.run({Job}));

  // Warm driver in transparent mode: the same bytes, every time.
  BatchDriver Warm(2);
  std::string First = Serialize(Warm.run({Job}, /*CacheTransparent=*/true));
  std::string Second = Serialize(Warm.run({Job}, /*CacheTransparent=*/true));
  EXPECT_EQ(First, Baseline);
  EXPECT_EQ(Second, Baseline);

  // Without transparency the second run visibly hits the cache instead.
  BatchDriver Plain(2);
  Plain.run({Job});
  std::string PlainSecond = Serialize(Plain.run({Job}));
  EXPECT_NE(PlainSecond, Baseline);

  // Transparency also hides the capacity bound (a fresh reference driver
  // is unbounded), while the driver's real cache stays bounded.
  BatchDriver Bounded(2);
  Bounded.setCacheCapacity(2);
  std::string BoundedFirst =
      Serialize(Bounded.run({Job}, /*CacheTransparent=*/true));
  std::string BoundedSecond =
      Serialize(Bounded.run({Job}, /*CacheTransparent=*/true));
  EXPECT_EQ(BoundedFirst, Baseline);
  EXPECT_EQ(BoundedSecond, Baseline);
  EXPECT_EQ(Bounded.pipelineCacheSize(), 2u);
}

TEST(BatchDriverTest, ReportSerializersProduceParseableShapes) {
  Suite S = tinySuite(3, 33);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 4;
  BatchDriver Driver(2);
  DriverReport Report = Driver.run({Job});

  std::string Json = driverReportToJson(Report).dump();
  EXPECT_NE(Json.find("\"schema\": \"layra-driver-report/v1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"total_spill_cost\""), std::string::npos);
  EXPECT_NE(Json.find("\"wall_ms\""), std::string::npos);
  std::string NoTiming =
      driverReportToJson(Report, /*IncludeTiming=*/false).dump();
  EXPECT_EQ(NoTiming.find("wall_ms"), std::string::npos);

  char Buffer[16384];
  std::FILE *Mem = fmemopen(Buffer, sizeof(Buffer), "w");
  writeDriverReportCsv(Mem, Report);
  std::fclose(Mem);
  std::string Csv = Buffer;
  EXPECT_EQ(Csv.compare(0, 5, "suite"), 0);
  // suite,target,regs,allocator,affinity,fold,max_rounds,functions,...
  EXPECT_NE(Csv.find("tiny,st231,4,bfpl,1,1,4,3"), std::string::npos);

  Mem = fmemopen(Buffer, sizeof(Buffer), "w");
  writeDriverTasksCsv(Mem, Report);
  std::fclose(Mem);
  std::string TasksCsv = Buffer;
  // Header plus one row per function.
  size_t Lines = 0;
  for (char C : TasksCsv)
    Lines += C == '\n' ? 1 : 0;
  EXPECT_EQ(Lines, 1u + 3u);
}

TEST(BatchDriverTest, SsaInputWithLoopPhisSolvesLikeTheDirectPipeline) {
  // IR that is already in SSA form (what submit_ir carries) must be solved
  // as given: the driver's outcome equals the pipeline run on that very
  // function, loop-carried phi operands intact.
  Suite Raw = tinySuite(6, 5);
  Suite S;
  S.Name = "ssa";
  SuiteProgram Prog;
  Prog.Name = "prog";
  unsigned WithPhis = 0;
  for (const Function &F : Raw.Programs[0].Functions) {
    SsaConversion Conv = convertToSsa(F);
    WithPhis += Conv.NumPhis > 0 ? 1 : 0;
    Prog.Functions.push_back(std::move(Conv.Ssa));
  }
  ASSERT_GT(WithPhis, 0u) << "no phi-bearing function to exercise";
  S.Programs.push_back(std::move(Prog));

  BatchJob Job;
  Job.SuiteName = "ssa";
  Job.SuiteData = &S;
  Job.NumRegisters = 3;
  BatchDriver Driver(2);
  DriverReport Report = Driver.run({Job});
  const std::vector<Function> &Fns = S.Programs[0].Functions;
  ASSERT_EQ(Report.Jobs[0].Tasks.size(), Fns.size());
  for (size_t I = 0; I < Fns.size(); ++I) {
    PipelineResult Direct = runAllocationPipeline(Fns[I], ST231, 3);
    const TaskOutcome &Out = Report.Jobs[0].Tasks[I].Out;
    EXPECT_EQ(Out.SpillCost, Direct.TotalSpillCost) << Fns[I].name();
    EXPECT_EQ(Out.NumLoads, Direct.Spills.NumLoads) << Fns[I].name();
    EXPECT_EQ(Out.NumStores, Direct.Spills.NumStores) << Fns[I].name();
    EXPECT_EQ(Out.Rounds, Direct.Rounds) << Fns[I].name();
    EXPECT_EQ(Out.FinalMaxLive, Direct.FinalMaxLive) << Fns[I].name();
    EXPECT_EQ(Out.Fits, Direct.Fits) << Fns[I].name();
  }
}

TEST(BatchDriverTest, RetainedTaskRegistersItsBaseEvenWhenCached) {
  Suite S = tinySuite(1, 61);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 3;
  auto Serialize = [](const DriverReport &R) {
    return driverReportToJson(R, /*IncludeTiming=*/false,
                              /*IncludeTasks=*/true)
        .dump();
  };

  BatchDriver Driver(2);
  std::string Plain = Serialize(Driver.run({Job}, /*CacheTransparent=*/true));
  ASSERT_EQ(Driver.pipelineCacheSize(), 1u);

  // Two jobs retaining the same (already cached) instance under two keys:
  // one solve captures, and the capture is registered under both keys.
  BatchJob RetainA = Job, RetainB = Job;
  RetainA.RetainKey = 0xA;
  RetainB.RetainKey = 0xB;
  DriverReport Both = Driver.run({RetainA, RetainB}, /*CacheTransparent=*/true);
  EXPECT_TRUE(Driver.hasBase(0xA));
  EXPECT_TRUE(Driver.hasBase(0xB));
  EXPECT_EQ(Driver.deltaCounters().Bases, 2u);
  // Transparent bytes do not show the extra solve.
  DriverReport Single = Driver.run({Job}, /*CacheTransparent=*/true);
  EXPECT_EQ(Serialize(Single), Plain);
  ASSERT_EQ(Both.Jobs.size(), 2u);
  EXPECT_FALSE(Both.Jobs[0].Tasks[0].CacheHit);
  EXPECT_TRUE(Both.Jobs[1].Tasks[0].CacheHit);

  // The warm-cache view shows the retained task as the solve it was.
  BatchJob RetainC = Job;
  RetainC.RetainKey = 0xC;
  DriverReport Warm = Driver.run({RetainC});
  EXPECT_TRUE(Driver.hasBase(0xC));
  EXPECT_FALSE(Warm.Jobs[0].Tasks[0].CacheHit);
  EXPECT_EQ(Warm.Jobs[0].TotalSpillCost, Single.Jobs[0].TotalSpillCost);
  // An already-registered key needs no capture: plain cache hit.
  DriverReport Again = Driver.run({RetainC});
  EXPECT_TRUE(Again.Jobs[0].Tasks[0].CacheHit);
}

TEST(BatchDriverTest, RetainedTaskBesideAStoreHitCommitsOnce) {
  // The retained task skips the lookups and solves; a plain twin later in
  // the same run loads the same key from the outcome store.  Phase 4 sees
  // the key twice and must commit it once.
  struct MapStore : TaskOutcomeStore {
    std::map<uint64_t, TaskOutcome> Entries;
    bool lookup(uint64_t Key, TaskOutcome &Out) override {
      auto It = Entries.find(Key);
      if (It == Entries.end())
        return false;
      Out = It->second;
      return true;
    }
    void store(uint64_t Key, const TaskOutcome &Out) override {
      Entries[Key] = Out;
    }
  } Store;
  Suite S = tinySuite(1, 62);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 3;

  BatchDriver Cold(1);
  Cold.setOutcomeStore(&Store);
  DriverReport Plain = Cold.run({Job}, /*CacheTransparent=*/true);
  ASSERT_EQ(Store.Entries.size(), 1u);

  BatchDriver Warm(1);
  Warm.setOutcomeStore(&Store);
  BatchJob Retain = Job;
  Retain.RetainKey = 0xD;
  DriverReport R = Warm.run({Retain, Job}, /*CacheTransparent=*/true);
  EXPECT_TRUE(Warm.hasBase(0xD));
  EXPECT_EQ(Warm.pipelineCacheSize(), 1u);
  ASSERT_EQ(R.Jobs.size(), 2u);
  EXPECT_EQ(R.Jobs[0].TotalSpillCost, Plain.Jobs[0].TotalSpillCost);
  EXPECT_EQ(R.Jobs[1].TotalSpillCost, Plain.Jobs[0].TotalSpillCost);
  // A third run is a plain memory-cache hit with the cache intact.
  DriverReport Again = Warm.run({Job});
  EXPECT_TRUE(Again.Jobs[0].Tasks[0].CacheHit);
  EXPECT_EQ(Warm.pipelineCacheSize(), 1u);
}

TEST(BatchDriverTest, PhaseSinkLeavesConcurrentRunsAlone) {
  // One thread runs drivers with a per-call phase sink, another runs
  // drivers without one.  The sink must see every solved task's pipeline
  // span, and accounting must never leak onto the sinkless run's threads.
  Suite S = tinySuite(8, 55);
  BatchJob Job;
  Job.SuiteName = "tiny";
  Job.SuiteData = &S;
  Job.NumRegisters = 3;

  constexpr int kRounds = 20;
  std::atomic<unsigned> SinkMismatches{0};
  uint64_t LeakedSpans = 0;
  std::thread Traced([&] {
    for (int Round = 0; Round < kRounds; ++Round) {
      BatchDriver Driver(2);
      std::vector<PhaseTotals> Sink;
      DriverReport R = Driver.run({Job}, /*CacheTransparent=*/false, &Sink);
      uint64_t Solved = 0;
      for (const TaskResult &T : R.Jobs[0].Tasks)
        Solved += T.CacheHit ? 0 : 1;
      if (Sink.size() != 1 ||
          Sink[0].Count[unsigned(Phase::Pipeline)] != Solved)
        ++SinkMismatches;
    }
  });
  std::thread Plain([&] {
    // A one-thread driver solves inline, so this thread's own totals show
    // whether accounting leaked onto it.
    const PhaseTotals Before = obs::threadPhaseTotals();
    for (int Round = 0; Round < kRounds; ++Round) {
      BatchDriver Driver(1);
      Driver.run({Job});
    }
    LeakedSpans = obs::threadPhaseTotals().Count[unsigned(Phase::Pipeline)] -
                  Before.Count[unsigned(Phase::Pipeline)];
  });
  Traced.join();
  Plain.join();
  EXPECT_EQ(SinkMismatches.load(), 0u);
  EXPECT_EQ(LeakedSpans, 0u);
}
