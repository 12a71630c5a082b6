//===- driver/BatchDriver.cpp - Parallel batch allocation ------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"

#include "alloc/OptimalBnB.h"
#include "ir/SsaBuilder.h"
#include "support/Compiler.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <chrono>
#include <map>
#include <unordered_map>
#include <unordered_set>

using namespace layra;

//===----------------------------------------------------------------------===//
// Content hashing
//===----------------------------------------------------------------------===//

namespace {

/// Mixes \p Value into running hash \p H (SplitMix64 avalanche; same
/// primitive the suite generators use for seed derivation).
uint64_t mix(uint64_t H, uint64_t Value) {
  uint64_t State = H ^ (Value + 0x9e3779b97f4a7c15ULL);
  return splitMix64(State);
}

uint64_t mixString(uint64_t H, const std::string &S) {
  H = mix(H, S.size());
  for (unsigned char C : S)
    H = mix(H, C);
  return H;
}

double toMs(std::chrono::steady_clock::duration D) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             D)
      .count();
}

} // namespace

uint64_t layra::hashFunction(const Function &F) {
  uint64_t H = 0x6c617972612d6866ULL; // "layra-hf"
  H = mix(H, F.numValues());
  H = mix(H, F.numBlocks());
  for (BlockId B = 0; B < F.numBlocks(); ++B) {
    const BasicBlock &Block = F.block(B);
    H = mix(H, Block.LoopDepth);
    H = mix(H, static_cast<uint64_t>(Block.Frequency));
    H = mix(H, Block.Preds.size());
    for (BlockId P : Block.Preds)
      H = mix(H, P);
    H = mix(H, Block.Succs.size());
    for (BlockId S : Block.Succs)
      H = mix(H, S);
    H = mix(H, Block.Instrs.size());
    for (const Instruction &I : Block.Instrs) {
      H = mix(H, static_cast<uint64_t>(I.Op));
      H = mix(H, I.Defs.size());
      for (ValueId V : I.Defs)
        H = mix(H, V);
      H = mix(H, I.Uses.size());
      for (ValueId V : I.Uses)
        H = mix(H, V);
      H = mix(H, static_cast<uint64_t>(static_cast<int64_t>(I.SpillSlot)));
      H = mix(H, I.MemUseSlots.size());
      for (int Slot : I.MemUseSlots)
        H = mix(H, static_cast<uint64_t>(static_cast<int64_t>(Slot)));
    }
  }
  // Register classes partition the values and change every layer's view of
  // the function.  Mixed only when present so every historical
  // (single-class) key -- including the ones committed in golden reports --
  // is preserved bit-for-bit.
  if (F.maxValueClass() > 0) {
    H = mix(H, 0x636c6173736573ULL); // "classes"
    for (ValueId V = 0; V < F.numValues(); ++V)
      H = mix(H, F.valueClass(V));
  }
  return H;
}

uint64_t layra::hashPipelineTask(uint64_t FunctionHash,
                                 const TargetDesc &Target,
                                 unsigned NumRegisters,
                                 const PipelineOptions &Options) {
  return hashPipelineTask(FunctionHash, Target,
                          resolveClassBudgets(Target, NumRegisters, {}),
                          Options);
}

uint64_t layra::hashPipelineTask(uint64_t FunctionHash,
                                 const TargetDesc &Target,
                                 const std::vector<unsigned> &Budgets,
                                 const PipelineOptions &Options) {
  uint64_t H = FunctionHash;
  // The target enters the pipeline only through its cost model, its
  // addressing-mode geometry and its class budgets; the name is cosmetic.
  H = mix(H, static_cast<uint64_t>(Target.LoadCost));
  H = mix(H, static_cast<uint64_t>(Target.StoreCost));
  H = mix(H, Target.MaxMemOperands);
  H = mix(H, static_cast<uint64_t>(Target.MemOperandCost));
  H = mix(H, Budgets.empty() ? 0 : Budgets[0]);
  H = mixString(H, Options.AllocatorName);
  H = mix(H, Options.AffinityBias ? 1 : 0);
  H = mix(H, Options.MaxRounds);
  H = mix(H, Options.FoldMemoryOperands ? 1 : 0);
  // Extra class budgets are mixed only when present, preserving every
  // scalar-era (single-class) key bit-for-bit.
  if (Budgets.size() > 1) {
    H = mix(H, Budgets.size());
    for (size_t C = 1; C < Budgets.size(); ++C)
      H = mix(H, Budgets[C]);
  }
  return H;
}

uint64_t layra::hashProblem(const AllocationProblem &P) {
  uint64_t H = 0x6c617972612d6870ULL; // "layra-hp"
  H = mix(H, P.Budgets[0]);
  // Multi-class identity (extra budgets, vertex classes) is mixed only
  // when present: single-class instances keep their historical keys.
  if (P.multiClass()) {
    H = mix(H, P.Budgets.size());
    for (unsigned C = 1; C < P.Budgets.size(); ++C)
      H = mix(H, P.Budgets[C]);
    for (VertexId V = 0; V < P.graph().numVertices(); ++V)
      H = mix(H, P.classOf(V));
  }
  H = mix(H, P.Chordal ? 1 : 0);
  H = mix(H, P.graph().numVertices());
  for (VertexId V = 0; V < P.graph().numVertices(); ++V) {
    H = mix(H, static_cast<uint64_t>(P.graph().weight(V)));
    NeighborRange Neighbors = P.graph().neighbors(V);
    H = mix(H, Neighbors.size());
    for (VertexId N : Neighbors)
      H = mix(H, N);
  }
  H = mix(H, P.Constraints.size());
  for (const PressureConstraint &K : P.Constraints) {
    H = mix(H, K.Members.size());
    for (VertexId V : K.Members)
      H = mix(H, V);
  }
  // Linear-scan allocators consume the interval layout, which is not
  // derivable from the graph, so it is part of the instance identity.
  if (P.Intervals) {
    H = mix(H, P.Intervals->NumPoints);
    H = mix(H, P.Intervals->Intervals.size());
    for (const LiveInterval &I : P.Intervals->Intervals) {
      H = mix(H, I.V);
      H = mix(H, I.Start);
      H = mix(H, I.End);
      H = mix(H, static_cast<uint64_t>(I.Cost));
    }
  } else {
    H = mix(H, 0xdeadULL);
  }
  return H;
}

//===----------------------------------------------------------------------===//
// BatchDriver
//===----------------------------------------------------------------------===//

BatchDriver::BatchDriver(unsigned Threads) : Pool(Threads) {
  Workspaces.reserve(Pool.numThreads());
  for (unsigned W = 0; W < Pool.numThreads(); ++W)
    Workspaces.push_back(std::make_unique<SolverWorkspace>());
}

WorkspaceStats BatchDriver::workspaceStats() const {
  WorkspaceStats Total;
  for (const auto &WS : Workspaces)
    Total.merge(WS->Stats);
  return Total;
}

void BatchDriver::setCacheCapacity(size_t MaxEntries) {
  PipelineCache.setCapacity(MaxEntries);
}

DriverCacheCounters BatchDriver::pipelineCacheCounters() const {
  DriverCacheCounters C;
  C.Hits = PipelineHits;
  C.Misses = PipelineMisses;
  C.Evictions = PipelineCache.evictions();
  C.Entries = PipelineCache.size();
  C.Capacity = PipelineCache.capacity();
  return C;
}

void BatchDriver::setBaseRegistryCapacity(size_t MaxBases) {
  BaseRegistry.setCapacity(MaxBases);
}

bool BatchDriver::hasBase(uint64_t Key) const {
  return BaseRegistry.peek(Key) != nullptr;
}

DriverDeltaCounters BatchDriver::deltaCounters() const {
  DriverDeltaCounters C;
  C.Hits = DeltaHits;
  C.Fallbacks = DeltaFallbacks;
  C.Bases = BaseRegistry.size();
  C.Capacity = BaseRegistry.capacity();
  return C;
}

DriverReport BatchDriver::run(const std::vector<BatchJob> &Jobs,
                              bool CacheTransparent,
                              std::vector<PhaseTotals> *PhaseSink) {
  auto BatchStart = std::chrono::steady_clock::now();
  // A sink switches accounting on only on the threads solving this run's
  // tasks (phase 3), so concurrent runs cannot see it.
  const bool WantSink = PhaseSink != nullptr;

  DriverReport Report;
  Report.Threads = Pool.numThreads();

  // Phase 1 (serial): generate each distinct named suite once.
  std::map<std::string, Suite> GeneratedSuites;
  for (const BatchJob &Job : Jobs)
    if (!Job.SuiteData && !GeneratedSuites.count(Job.SuiteName))
      GeneratedSuites.emplace(Job.SuiteName, makeSuite(Job.SuiteName));

  // Phase 2 (serial): expand jobs into tasks and classify hit/miss against
  // the persistent cache plus this batch's first occurrences.  Doing this
  // before any parallel work keeps the classification thread-independent.
  // Outcomes of persistent hits are copied out *now*: by the time phase 4
  // assembles results, a bounded cache may already have evicted them.
  struct PendingTask {
    size_t JobIndex;
    const Function *F;
    const std::string *Program;
    uint64_t Key;
    bool PersistentHit; ///< Key was in the cache before this run.
    bool BatchDup;      ///< An earlier task of this run has the same key.
    TaskOutcome CachedOut; ///< Meaningful only when PersistentHit.
    size_t UniqueIndex; ///< Slot in Unique (below).
  };
  /// One instance solved this run: the first task that met its key, the
  /// delta capture riding on the solve, and what the solve produced.
  struct UniqueSolve {
    size_t PendingIndex;
    std::shared_ptr<DeltaBase> Capture{};
    TaskOutcome Out{};
    double Ms = 0;
    PhaseTotals Phases{};
    bool UsedDelta = false;
  };
  std::vector<PendingTask> Pending;
  std::vector<UniqueSolve> Unique;
  std::unordered_map<uint64_t, size_t> UniqueOf; // Key -> Unique slot.
  std::unordered_set<uint64_t> BatchSeen; // Every key met this run.
  // Outcomes pulled from the persistent store this run, read at most once
  // per key (the map dedupes repeats) and committed to the memory cache in
  // phase 4 in load order, so eviction order stays deterministic.
  std::unordered_map<uint64_t, TaskOutcome> StoreLoaded;
  std::vector<uint64_t> StoreLoadOrder;

  // Delta bookkeeping, all decided in this serial phase.  A slot's base
  // comes from the job of its first task.  A task that must become a base
  // (the first task of a RetainKey job whose key is not registered) is
  // always a unique solve, whatever the caches hold, so its capture rides
  // on the one solve pass: "request accepted => base registered" holds
  // even when the outcome itself was already cached.  Retains lists the
  // (slot, key) pairs to register, in expansion order.
  std::vector<std::shared_ptr<const DeltaBase>> JobBases(Jobs.size());
  std::unordered_set<uint64_t> RetainSeen;
  std::vector<std::pair<size_t, uint64_t>> Retains;

  // Function pointers are stable for the duration of run() (suites live in
  // GeneratedSuites or in the caller's SuiteData), so each function's IR is
  // hashed once even when a sweep references it from many jobs.
  std::unordered_map<const Function *, uint64_t> FunctionHashes;
  auto HashOf = [&](const Function &F) {
    auto It = FunctionHashes.find(&F);
    if (It != FunctionHashes.end())
      return It->second;
    uint64_t H = hashFunction(F);
    FunctionHashes.emplace(&F, H);
    return H;
  };
  // One store read per distinct key per run; repeats are served from the
  // StoreLoaded snapshot so a slow store is touched O(unique keys) times.
  auto LookupStore = [&](uint64_t Key, TaskOutcome &Out) {
    auto Loaded = StoreLoaded.find(Key);
    if (Loaded != StoreLoaded.end()) {
      Out = Loaded->second;
      return true;
    }
    TaskOutcome FromStore;
    if (!OutcomeStore->lookup(Key, FromStore))
      return false;
    StoreLoaded.emplace(Key, FromStore);
    StoreLoadOrder.push_back(Key);
    Out = FromStore;
    return true;
  };

  Report.Jobs.resize(Jobs.size());
  // Per-class budgets of each job, resolved once (class 0 = NumRegisters,
  // others architectural, --class-regs overrides applied).
  std::vector<std::vector<unsigned>> JobBudgets(Jobs.size());
  for (size_t JI = 0; JI < Jobs.size(); ++JI) {
    const BatchJob &Job = Jobs[JI];
    const Suite &S =
        Job.SuiteData ? *Job.SuiteData : GeneratedSuites.at(Job.SuiteName);
    // The report must stay valid after the caller's Suite dies: snapshot
    // the resolved label and drop the borrowed pointer.
    Report.Jobs[JI].Job = Job;
    Report.Jobs[JI].Job.SuiteData = nullptr;
    if (Report.Jobs[JI].Job.SuiteName.empty())
      Report.Jobs[JI].Job.SuiteName = S.Name;
    std::string BudgetError;
    JobBudgets[JI] = resolveClassBudgets(Job.Target, Job.NumRegisters,
                                         Job.ClassRegs, &BudgetError);
    if (JobBudgets[JI].empty())
      layraFatalError("invalid class-regs override (front ends validate "
                      "before building jobs)");
    Report.Jobs[JI].Job.Budgets = JobBudgets[JI];
    assert(!(Job.BaseKey && Job.RetainKey) &&
           "a job either consumes a base or becomes one");
    // Resolve this job's base now (serial find, so registry recency and
    // with it LRU eviction order stay deterministic).  The shared_ptr
    // copy keeps the base alive even if this run's own phase-4 inserts
    // evict it from the registry.
    if (Job.BaseKey)
      if (const std::shared_ptr<const DeltaBase> *E =
              BaseRegistry.find(Job.BaseKey))
        JobBases[JI] = *E;
    // Retain at most one capture per key per run; an already-registered
    // key just has its recency refreshed.
    bool WantCapture = Job.RetainKey && !RetainSeen.count(Job.RetainKey) &&
                       BaseRegistry.find(Job.RetainKey) == nullptr;
    if (WantCapture)
      RetainSeen.insert(Job.RetainKey);
    for (const SuiteProgram &Prog : S.Programs)
      for (const Function &F : Prog.Functions) {
        PendingTask T;
        T.JobIndex = JI;
        T.F = &F;
        T.Program = &Prog.Name;
        // Instances are equated purely by 64-bit content hash: at n tasks
        // the collision odds are ~n^2/2^65 (~1e-13 for n = 100k), which we
        // accept rather than storing canonical instances for re-check.
        T.Key = hashPipelineTask(HashOf(F), Job.Target, JobBudgets[JI],
                                 Job.Options);
        T.BatchDup = !BatchSeen.insert(T.Key).second;
        T.PersistentHit = false;
        T.UniqueIndex = ~size_t(0);
        // The job's first task becomes the base, so it must be solved.
        const bool Capture = WantCapture;
        WantCapture = false;
        // find() marks the entry most recently used; lookups never insert,
        // so no eviction can happen before the phase-4 commit.
        if (const TaskOutcome *Hit =
                Capture ? nullptr : PipelineCache.find(T.Key)) {
          T.PersistentHit = true;
          T.CachedOut = *Hit;
        } else if (!Capture && OutcomeStore &&
                   LookupStore(T.Key, T.CachedOut)) {
          // A store hit is a persistent hit the memory cache merely
          // forgot (or never saw -- a fresh process warm-starting from
          // disk); phase 4 re-seats it in the memory cache.
          T.PersistentHit = true;
        } else {
          auto [Slot, New] = UniqueOf.emplace(T.Key, Unique.size());
          T.UniqueIndex = Slot->second;
          if (New)
            Unique.push_back({Pending.size()});
          if (Capture) {
            // A batch twin capturing for another key shares the capture.
            std::shared_ptr<DeltaBase> &C = Unique[T.UniqueIndex].Capture;
            if (!C)
              C = std::make_shared<DeltaBase>();
            Retains.emplace_back(T.UniqueIndex, Job.RetainKey);
          }
        }
        if (T.PersistentHit || T.BatchDup)
          ++PipelineHits;
        else
          ++PipelineMisses;
        Pending.push_back(T);
      }
  }

  // Phase 3 (parallel): solve each unique instance once.  Every worker
  // writes only its own slot; the library itself is deterministic, and a
  // workspace carries only buffer capacity, never state, so slot-local
  // workspace reuse cannot leak one task's results into another's.
  Pool.parallelForWorker(Unique.size(), [&](size_t I, unsigned Slot) {
    UniqueSolve &U = Unique[I];
    const PendingTask &T = Pending[U.PendingIndex];
    const BatchJob &Job = Jobs[T.JobIndex];
    obs::ScopedPhaseAccounting SinkScope(WantSink);
    // Tasks run serially on a worker, so the thread-local phase totals
    // delta across this task is exactly this task's breakdown.
    PhaseTotals Before;
    if (WantSink)
      Before = obs::threadPhaseTotals();
    auto Start = std::chrono::steady_clock::now();
    SsaConversion Ssa = convertToSsa(*T.F);
    // A solve either consumes a base or becomes one; a capture sharing a
    // delta consumer's slot makes that solve a full one (byte-equal).
    PipelineDeltaContext Delta;
    Delta.Capture = U.Capture.get();
    if (!Delta.Capture)
      Delta.Base = JobBases[T.JobIndex].get();
    PipelineResult R =
        runAllocationPipeline(Ssa.Ssa, Job.Target, JobBudgets[T.JobIndex],
                              Job.Options, Workspaces[Slot].get(), &Delta);
    U.UsedDelta = Delta.UsedDelta;
    if (WantSink) {
      const PhaseTotals &After = obs::threadPhaseTotals();
      for (unsigned P = 0; P < kNumPhases; ++P) {
        U.Phases.Ms[P] = After.Ms[P] - Before.Ms[P];
        U.Phases.Count[P] = After.Count[P] - Before.Count[P];
      }
    }
    U.Out.SpillCost = R.TotalSpillCost;
    U.Out.NumLoads = R.Spills.NumLoads;
    U.Out.NumStores = R.Spills.NumStores;
    U.Out.LoadsFolded = R.LoadsFolded;
    U.Out.Rounds = R.Rounds;
    U.Out.FinalMaxLive = R.FinalMaxLive;
    U.Out.Fits = R.Fits;
    U.Ms = toMs(std::chrono::steady_clock::now() - Start);
  });

  // Phase 4 (serial): commit outcomes to the cache and assemble the
  // reports in expansion order.  Results are read from the phase-2/3
  // snapshots, never from the cache, so a small capacity bound can evict
  // entries this very batch produced without corrupting the report.
  uint64_t EvictionsBefore = PipelineCache.evictions();
  // Disk-loaded outcomes re-enter the memory cache first (in load order),
  // then this run's solves; both flow through the same serial insert path
  // so a bounded capacity evicts deterministically.  Newly solved
  // outcomes also flow down into the persistent store.
  for (uint64_t Key : StoreLoadOrder)
    PipelineCache.insert(Key, StoreLoaded.at(Key));
  // Delta hits/fallbacks are tallied over this run's solves and captured
  // bases registered in expansion order, so registry contents and LRU
  // eviction order are thread-count independent.  Incomplete captures (no
  // liveness: the pipeline never reached a round-0 build, e.g. MaxRounds
  // quirks) are dropped rather than registered as unusable bases.
  for (const UniqueSolve &U : Unique) {
    const PendingTask &T = Pending[U.PendingIndex];
    // A capture solve skipped the lookups, so its key may already be
    // cached (or loaded from the store by a later twin): refresh, not add.
    if (!PipelineCache.find(T.Key))
      PipelineCache.insert(T.Key, U.Out);
    if (OutcomeStore)
      OutcomeStore->store(T.Key, U.Out);
    if (Jobs[T.JobIndex].BaseKey)
      ++(U.UsedDelta ? DeltaHits : DeltaFallbacks);
  }
  for (const auto &[Slot, Key] : Retains)
    if (Unique[Slot].Capture->Live)
      BaseRegistry.insert(Key, Unique[Slot].Capture);

  std::vector<std::vector<double>> JobSolveMs(Jobs.size());
  std::vector<PhaseTotals> JobPhases(WantSink ? Jobs.size() : 0);
  for (const PendingTask &T : Pending) {
    JobReport &JR = Report.Jobs[T.JobIndex];
    const bool Solved = !T.PersistentHit && !T.BatchDup;
    // Phase breakdowns, like WallMs, cover only the tasks actually solved
    // in this run (cache hits and batch twins cost no solver time).
    if (WantSink && Solved)
      for (unsigned P = 0; P < kNumPhases; ++P) {
        JobPhases[T.JobIndex].Ms[P] += Unique[T.UniqueIndex].Phases.Ms[P];
        JobPhases[T.JobIndex].Count[P] +=
            Unique[T.UniqueIndex].Phases.Count[P];
      }
    TaskResult Result;
    Result.Program = *T.Program;
    Result.Function = T.F->name();
    Result.Key = T.Key;
    // A transparent report describes what a fresh driver would have said:
    // only duplicates *within* this run count as hits.
    Result.CacheHit =
        CacheTransparent ? T.BatchDup : (T.PersistentHit || T.BatchDup);
    Result.Out = T.PersistentHit ? T.CachedOut : Unique[T.UniqueIndex].Out;
    if (Solved) {
      Result.WallMs = Unique[T.UniqueIndex].Ms;
      JobSolveMs[T.JobIndex].push_back(Result.WallMs);
    }
    JR.TotalSpillCost += Result.Out.SpillCost;
    JR.TotalLoads += Result.Out.NumLoads;
    JR.TotalStores += Result.Out.NumStores;
    JR.TotalFolded += Result.Out.LoadsFolded;
    JR.TotalRounds += Result.Out.Rounds;
    JR.FunctionsFit += Result.Out.Fits ? 1 : 0;
    JR.CacheHits += Result.CacheHit ? 1 : 0;
    JR.WallMsTotal += Result.WallMs;
    JR.Tasks.push_back(std::move(Result));
  }
  if (WantSink)
    *PhaseSink = std::move(JobPhases);
  for (size_t JI = 0; JI < Jobs.size(); ++JI) {
    SampleSummary Summary = summarize(std::move(JobSolveMs[JI]));
    Report.Jobs[JI].WallMsP50 = Summary.Median;
    Report.Jobs[JI].WallMsP95 = Summary.P95;
    Report.Jobs[JI].WallMsMax = Summary.Max;
    Report.CacheHits += Report.Jobs[JI].CacheHits;
  }
  // Transparent mode reports the cache a fresh unbounded driver would end
  // up with: one entry per distinct key, nothing evicted.
  Report.CacheEntries =
      CacheTransparent ? BatchSeen.size() : PipelineCache.size();
  Report.CacheEvictions =
      CacheTransparent ? 0 : PipelineCache.evictions() - EvictionsBefore;
  Report.WallMs = toMs(std::chrono::steady_clock::now() - BatchStart);
  return Report;
}

std::vector<AllocationResult>
BatchDriver::solveProblems(const std::vector<const AllocationProblem *> &Problems,
                           const std::string &AllocatorName,
                           uint64_t OptimalNodeLimit, std::string &Error) {
  bool IsOptimal = AllocatorName == "optimal";

  // Validate the allocator name and allocator-vs-problem compatibility up
  // front, on the calling thread: a bad name or an interval-consuming
  // allocator handed a graph-only instance must surface as a per-call
  // error, never as a layraFatalError inside a pool worker.
  Error.clear();
  if (!IsOptimal) {
    std::unique_ptr<Allocator> Probe = makeAllocator(AllocatorName);
    if (!Probe) {
      std::string Known;
      for (const std::string &N : allAllocatorNames())
        Known += " " + N;
      Error = "unknown allocator '" + AllocatorName + "' (known:" + Known +
              ")";
      return {};
    }
    if (Probe->requiresIntervals())
      for (size_t I = 0; I < Problems.size(); ++I)
        if (!Problems[I]->Intervals) {
          Error = "allocator '" + AllocatorName +
                  "' requires live intervals, but problem #" +
                  std::to_string(I) +
                  " is graph-only (no interval table); pick a graph-based "
                  "allocator or an interval-bearing suite";
          return {};
        }
  }

  // Serial dedupe, as in run(): the first occurrence of an instance
  // solves, later ones share (same accepted hash-collision tradeoff).
  // The allocator and node limit are fixed for the call, so the problem
  // hash alone is the key.
  std::vector<size_t> ResultUnique(Problems.size());
  std::vector<size_t> UniqueToInput;
  std::unordered_map<uint64_t, size_t> UniqueOf;
  for (size_t I = 0; I < Problems.size(); ++I) {
    auto [Slot, New] =
        UniqueOf.emplace(hashProblem(*Problems[I]), UniqueToInput.size());
    if (New)
      UniqueToInput.push_back(I);
    ResultUnique[I] = Slot->second;
  }

  std::vector<AllocationResult> Unique(UniqueToInput.size());
  Pool.parallelForWorker(UniqueToInput.size(), [&](size_t U, unsigned Slot) {
    const AllocationProblem &P = *Problems[UniqueToInput[U]];
    SolverWorkspace *WS = Workspaces[Slot].get();
    if (IsOptimal) {
      OptimalBnBAllocator BnB(OptimalNodeLimit);
      Unique[U] = BnB.allocate(P, WS);
      return;
    }
    // Validated before the pool launched; this cannot fail here.
    std::unique_ptr<Allocator> A = makeAllocator(AllocatorName);
    assert(A && "allocator name validated before dispatch");
    // allocateProblem: single-class problems take the direct path,
    // multi-class ones the exact per-class decomposition.
    Unique[U] = A->allocateProblem(P, WS);
  });

  std::vector<AllocationResult> Results(Problems.size());
  for (size_t I = 0; I < Problems.size(); ++I)
    Results[I] = Unique[ResultUnique[I]];
  return Results;
}
