//===- driver/BatchDriver.h - Parallel batch allocation ---------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch-allocation subsystem: expands jobs (suite x target x register
/// count x pipeline options) into per-function allocation tasks, dedupes
/// repeated instances through a content-hash cache, and executes the unique
/// ones on a work-stealing thread pool (support/ThreadPool.h).
///
/// Determinism contract: report contents other than wall-clock timings are
/// a pure function of the jobs -- independent of the thread count and of the
/// steal schedule.  This holds because (a) every task writes only its own
/// result slot, (b) the library itself is deterministic, and (c) cache
/// hit/miss classification happens in a serial expansion pass *before* any
/// parallel work, so which instance of a duplicate pair is "the hit" never
/// depends on a race.
///
/// The cache persists across run() calls: sweeping the same suite at a new
/// register count re-solves (keys include R), but re-running an identical
/// job -- or meeting the same function again in another suite -- is free.
/// In the decoupled spill-everywhere view (Bouchez, Darte, Rastello) the
/// spill decision is a pure function of the instance, which is what makes
/// memoizing it sound.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_DRIVER_BATCHDRIVER_H
#define LAYRA_DRIVER_BATCHDRIVER_H

#include "alloc/Pipeline.h"
#include "core/AllocationProblem.h"
#include "core/Delta.h"
#include "core/SolverWorkspace.h"
#include "ir/Target.h"
#include "obs/Trace.h"
#include "suites/Suites.h"
#include "support/LruCache.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace layra {

/// One batch job: every function of one suite, run through the allocation
/// pipeline at one register count with one option set.
struct BatchJob {
  /// Suite name; resolved through makeSuite() unless SuiteData is set.
  std::string SuiteName;
  /// Optional pre-built suite (must outlive the run() call).  Lets callers
  /// expand a generated suite once across a whole register sweep and lets
  /// tests drive hand-built functions.  SuiteName is then just the label.
  const Suite *SuiteData = nullptr;
  /// Target cost model.
  TargetDesc Target = ST231;
  /// Register count for this job: the budget of register class 0 (what
  /// `--regs` sweeps).  Other classes default to the target's
  /// architectural counts.
  unsigned NumRegisters = 0;
  /// Per-class overrides (`--class-regs=NAME:N`), applied on top of
  /// NumRegisters/architectural defaults by resolveClassBudgets.
  std::vector<ClassRegOverride> ClassRegs;
  /// Resolved per-class budgets.  Callers leave this empty; run() fills it
  /// (and the copy stored in each JobReport) so report serializers see the
  /// budgets without re-deriving them.
  std::vector<unsigned> Budgets;
  /// Pipeline configuration (allocator, rounds, folding, ...).
  PipelineOptions Options;
  /// Delta channel (core/Delta.h).  BaseKey != 0: warm-start this job's
  /// solved tasks from the base retained under that key; a task that
  /// solves without managing it (incompatible structure, or no such base)
  /// counts as a delta fallback.  RetainKey != 0: retain the round-0
  /// artifacts of this job's first task under that key for future deltas.
  /// Capture rides on the task's solve, so when the key is not yet
  /// registered that task is always solved -- never served from the
  /// memory cache or the outcome store (its outcome is the same either
  /// way).  At most one of the two may be set; both are designed for the
  /// single-function jobs the JIT/server resubmission path builds.
  /// Neither enters the task content hash -- delta solves are byte-equal
  /// to full solves, so cached outcomes stay shared either way.
  uint64_t BaseKey = 0;
  uint64_t RetainKey = 0;
};

/// Deterministic outcome of one function's pipeline run.  This is the unit
/// the cache stores and shares between duplicate instances.
struct TaskOutcome {
  Weight SpillCost = 0;
  unsigned NumLoads = 0;
  unsigned NumStores = 0;
  unsigned LoadsFolded = 0;
  unsigned Rounds = 0;
  unsigned FinalMaxLive = 0;
  bool Fits = false;
};

/// One function's record within a job report.
struct TaskResult {
  std::string Program;  ///< Owning suite program.
  std::string Function; ///< Function name.
  uint64_t Key = 0;     ///< Content hash (IR + target + R + options).
  bool CacheHit = false;///< Shared a previously solved identical instance.
  TaskOutcome Out;
  double WallMs = 0;    ///< Solve time; 0 for cache hits.  Timing field.
};

/// Aggregates over one job.  Every field except the WallMs* ones is
/// deterministic across thread counts.
struct JobReport {
  /// The job as configured, with SuiteName resolved and SuiteData cleared
  /// so the report never borrows the caller's suite storage.
  BatchJob Job;
  std::vector<TaskResult> Tasks; ///< Suite order, thread-independent.
  Weight TotalSpillCost = 0;
  uint64_t TotalLoads = 0;
  uint64_t TotalStores = 0;
  uint64_t TotalFolded = 0;
  uint64_t TotalRounds = 0;
  unsigned FunctionsFit = 0;
  unsigned CacheHits = 0;
  /// Wall-time aggregate/percentiles over this job's solved (non-hit)
  /// tasks.  Timing fields: excluded from determinism comparisons.
  double WallMsTotal = 0;
  double WallMsP50 = 0;
  double WallMsP95 = 0;
  double WallMsMax = 0;
};

/// Everything one run() produced.
struct DriverReport {
  std::vector<JobReport> Jobs;
  unsigned Threads = 1;
  uint64_t CacheEntries = 0;   ///< Pipeline-cache size after the run.
  uint64_t CacheHits = 0;      ///< Hits across this run's jobs.
  uint64_t CacheEvictions = 0; ///< Entries evicted during this run.
  double WallMs = 0;           ///< Whole-batch wall clock.  Timing field.
};

/// Lifetime counters of one BatchDriver's pipeline-outcome cache.
/// Cumulative across run() calls; the allocation server surfaces them
/// through its `stats` request, and `layra-bench --workspace-stats`
/// prints them alongside the arena accounting.
struct DriverCacheCounters {
  uint64_t Hits = 0;      ///< Tasks served from the cache or a batch twin.
  uint64_t Misses = 0;    ///< Tasks that required a solve.
  uint64_t Evictions = 0; ///< Entries dropped by the capacity bound.
  uint64_t Entries = 0;   ///< Entries currently held.
  uint64_t Capacity = 0;  ///< Configured bound; 0 = unbounded.
};

/// Lifetime counters of one BatchDriver's delta machinery.  Hits count
/// solved tasks whose round-0 problem came from a retained base (liveness
/// /interference/MCS skipped); fallbacks count tasks that asked for a
/// base but solved from scratch (structurally incompatible edit, or the
/// base was never registered/already evicted).  Cache hits of delta
/// requests count as neither -- no solve happened at all.
struct DriverDeltaCounters {
  uint64_t Hits = 0;
  uint64_t Fallbacks = 0;
  uint64_t Bases = 0;    ///< Bases currently retained.
  uint64_t Capacity = 0; ///< Registry bound; 0 = unbounded.
};

/// Persistence hook underneath the in-memory pipeline cache.  When a
/// store is attached (setOutcomeStore), run()'s serial classification
/// phase consults it for keys the memory cache misses, and the serial
/// commit phase hands it every newly solved outcome.  Both calls happen
/// only on the thread that called run(), never from pool workers, so an
/// implementation needs no synchronization against the driver itself
/// (service/DiskCache.h still locks internally because the server shares
/// one store across shard drivers).
///
/// Outcomes are pure functions of the content-hash key, which is what
/// makes persisting them sound -- the same argument that justifies the
/// in-memory cache.  A store must therefore never return a stale entry
/// for a changed solver: implementations version their payloads (the
/// disk cache keys its header on protocol + solver revision) and treat a
/// mismatch as a miss.
class TaskOutcomeStore {
public:
  virtual ~TaskOutcomeStore() = default;
  /// True when an outcome for \p Key exists; fills \p Out.  A corrupt or
  /// version-mismatched entry must read as "absent", not as an error --
  /// the driver then simply re-solves (and re-stores) the instance.
  virtual bool lookup(uint64_t Key, TaskOutcome &Out) = 0;
  /// Persists \p Out under \p Key.  Failures are the store's problem
  /// (drop the entry, log, evict); the driver does not check.
  virtual void store(uint64_t Key, const TaskOutcome &Out) = 0;
};

/// Stable structural hash of a function's IR: blocks, edges, instructions,
/// operands, spill slots and frequencies.  Value/block/function *names* are
/// excluded, so two structurally identical functions hash equal.
uint64_t hashFunction(const Function &F);

/// Cache key of one pipeline task: \p FunctionHash (hashFunction(F),
/// computed once per function across a register sweep) mixed with the
/// target cost model, the register budgets and every PipelineOptions
/// field.  Single-class keys are unchanged from the scalar era (extra
/// class budgets are mixed only when present).
uint64_t hashPipelineTask(uint64_t FunctionHash, const TargetDesc &Target,
                          unsigned NumRegisters,
                          const PipelineOptions &Options);

/// Vector-budget form (resolveClassBudgets output).
uint64_t hashPipelineTask(uint64_t FunctionHash, const TargetDesc &Target,
                          const std::vector<unsigned> &Budgets,
                          const PipelineOptions &Options);

/// Stable content hash of a spill-everywhere instance: graph weights and
/// adjacency, register count, point constraints, and (when present) the
/// flattened live intervals.  Vertex names are excluded.
uint64_t hashProblem(const AllocationProblem &P);

/// Schedules per-function allocation problems over a work-stealing pool.
class BatchDriver {
public:
  /// \p Threads = 0 picks ThreadPool::defaultThreadCount().
  explicit BatchDriver(unsigned Threads = 0);

  unsigned numThreads() const { return Pool.numThreads(); }

  /// Expands \p Jobs, solves unique instances in parallel, and returns the
  /// per-job reports in job order (task order within a job is suite order).
  ///
  /// With \p CacheTransparent the report's cache-related content (per-task
  /// CacheHit flags, the hit counters, cache_entries/evictions) describes
  /// what a *fresh, unbounded* driver running the same jobs would report,
  /// while the persistent cache is still consulted to skip repeated solves.
  /// Outcome fields are pure functions of each instance either way, so a
  /// transparent timing-free report is byte-identical no matter how warm
  /// the cache is -- the property the allocation server's responses rely
  /// on (tests/service/ServerLoopbackTest.cpp asserts it).
  ///
  /// \p PhaseSink is the only way phase timing leaves the driver: when
  /// non-null it is filled with one PhaseTotals per job, in job order,
  /// holding the per-phase *self* times (summing them reconstructs the
  /// solve wall time without double counting) and span counts of the
  /// tasks this run actually solved (cache hits and batch duplicates cost
  /// no solver time, like TaskResult::WallMs).  Phase accounting is
  /// switched on only on the threads running this call's tasks, for the
  /// duration of each task (obs::ScopedPhaseAccounting), so concurrent
  /// runs on other drivers neither see nor lose spans.  The sink never
  /// changes the report; the serializers (driver/ReportIO.h) take it as
  /// a separate argument.
  DriverReport run(const std::vector<BatchJob> &Jobs,
                   bool CacheTransparent = false,
                   std::vector<PhaseTotals> *PhaseSink = nullptr);

  /// Lower-level batch entry used by the figure harness: solves every
  /// problem with allocator \p AllocatorName in parallel and returns the
  /// results in input order.  Duplicate instances within the call (by
  /// content hash) are solved once; nothing is memoized across calls.
  /// \p OptimalNodeLimit bounds the "optimal" branch-and-bound search
  /// (always honored for that allocator, zero meaning a zero node budget;
  /// 50'000'000 matches OptimalBnBAllocator's default); other allocators
  /// ignore it.
  ///
  /// The allocator name and allocator-vs-problem compatibility (the
  /// linear-scan family needs AllocationProblem::Intervals) are validated
  /// up front on the calling thread: a violation returns an empty vector
  /// with \p Error set to the diagnostic, before any pool worker starts.
  /// \p Error is cleared on success.
  std::vector<AllocationResult>
  solveProblems(const std::vector<const AllocationProblem *> &Problems,
                const std::string &AllocatorName, uint64_t OptimalNodeLimit,
                std::string &Error);

  /// Number of memoized pipeline outcomes.
  size_t pipelineCacheSize() const { return PipelineCache.size(); }

  /// Bounds the pipeline-outcome cache to \p MaxEntries, evicting the
  /// least recently used overflow immediately.  0 (the default) removes the
  /// bound.  Recency updates and evictions happen only in the serial
  /// classification/commit phases, so eviction order -- and with it every
  /// report -- remains deterministic across thread counts.  A long-lived
  /// process (service/Server.h) must set a bound: entries are O(vertices)
  /// bytes each and otherwise accumulate forever.
  void setCacheCapacity(size_t MaxEntries);

  /// Attaches (or with null detaches) a persistent outcome store under
  /// the pipeline cache.  Not owned; must outlive the driver or be
  /// detached first.  Store hits behave exactly like in-memory cache
  /// hits in reports and counters -- in transparent mode they are
  /// invisible, preserving the byte-identity contract.
  void setOutcomeStore(TaskOutcomeStore *Store) { OutcomeStore = Store; }
  TaskOutcomeStore *outcomeStore() const { return OutcomeStore; }

  /// Lifetime hit/miss/eviction counters of the pipeline-outcome cache.
  DriverCacheCounters pipelineCacheCounters() const;

  /// Bounds the base-function registry to \p MaxBases retained bases
  /// (LRU eviction; 0 removes the bound).  Bases are O(function + graph)
  /// bytes each -- far heavier than cached outcomes -- so a long-lived
  /// process must set a bound.
  void setBaseRegistryCapacity(size_t MaxBases);
  /// True when a base is currently retained under \p Key (no recency
  /// update; the server's base-not-found check).
  bool hasBase(uint64_t Key) const;
  /// Lifetime delta hit/fallback counters and registry occupancy.
  DriverDeltaCounters deltaCounters() const;

  /// Aggregated buffer-checkout accounting over every per-worker
  /// workspace, cumulative across run()/solveProblems() calls.  Feeds
  /// `layra-bench --workspace-stats`.  NOT part of the determinism
  /// contract: the reuse/allocated split depends on the thread count and
  /// the steal schedule, which is why it lives outside DriverReport.
  WorkspaceStats workspaceStats() const;

private:
  ThreadPool Pool;
  /// One workspace per pool participant (slot-indexed, see
  /// ThreadPool::parallelForWorker): consecutive tasks on a worker reuse
  /// the same arenas.  Workspaces persist across run() calls.
  std::vector<std::unique_ptr<SolverWorkspace>> Workspaces;
  /// hashPipelineTask key -> outcome.  Touched only from the serial
  /// expansion/commit phases, never from pool workers.
  LruCache<uint64_t, TaskOutcome> PipelineCache;
  /// Optional persistence layer under PipelineCache (not owned).
  TaskOutcomeStore *OutcomeStore = nullptr;
  /// Base-function registry: RetainKey -> retained round-0 artifacts.
  /// shared_ptr so an in-flight run's base survives an eviction the same
  /// run's phase-4 inserts trigger, and so one capture can be registered
  /// under several keys.  Touched only from the serial expansion/commit
  /// phases, so recency and eviction order -- and with them which deltas
  /// hit -- are deterministic across thread counts.
  LruCache<uint64_t, std::shared_ptr<const DeltaBase>> BaseRegistry;
  /// Lifetime hit/miss tallies (the caches themselves track evictions).
  uint64_t PipelineHits = 0, PipelineMisses = 0;
  uint64_t DeltaHits = 0, DeltaFallbacks = 0;
};

} // namespace layra

#endif // LAYRA_DRIVER_BATCHDRIVER_H
