//===- fuzz/Oracles.cpp - Differential oracle registry ----------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracles.h"

#include "alloc/BruteForce.h"
#include "alloc/OptimalBnB.h"
#include "core/Layered.h"
#include "core/LayeredHeuristic.h"
#include "core/ProblemBuilder.h"
#include "core/SolverWorkspace.h"
#include "driver/BatchDriver.h"
#include "driver/ReportIO.h"
#include "ir/Parser.h"
#include "ir/SsaBuilder.h"
#include "obs/EventLog.h"
#include "obs/RequestTrace.h"
#include "obs/Trace.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "suites/Suites.h"

using namespace layra;

namespace {

/// Largest instance the exhaustive-search cross check runs on.
constexpr unsigned kBruteForceVertexLimit = 18;

OracleOutcome fail(std::string Detail) { return {false, std::move(Detail)}; }

/// Expresses a case's budget vector as the (NumRegisters, ClassRegs)
/// pair BatchJob and the wire protocol speak: class 0 through the swept
/// register count, every other class as an explicit by-name override.
std::vector<ClassRegOverride>
classOverrides(const TargetDesc &Target, const std::vector<unsigned> &Budgets) {
  std::vector<ClassRegOverride> Overrides;
  for (unsigned C = 1; C < Budgets.size(); ++C)
    Overrides.push_back({Target.regClass(C).Name, Budgets[C]});
  return Overrides;
}

/// The single-function suite both driver-level oracles feed to
/// BatchDriver, labelled the way the server labels a submit_ir suite so
/// the serve-vs-direct comparison is over identical jobs.
Suite singleFunctionSuite(const Function &F, const std::string &SuiteName) {
  Suite S;
  S.Name = SuiteName;
  SuiteProgram Prog;
  Prog.Name = F.name();
  Prog.Functions.push_back(F);
  S.Programs.push_back(std::move(Prog));
  return S;
}

std::vector<BatchJob> singleJob(const Suite &S, const TargetDesc &Target,
                                const std::vector<unsigned> &Budgets) {
  BatchJob Job;
  Job.SuiteName = S.Name;
  Job.SuiteData = &S;
  Job.Target = Target;
  Job.NumRegisters = Budgets.empty() ? 4 : Budgets[0];
  Job.ClassRegs = classOverrides(Target, Budgets);
  return {Job};
}

/// Heuristic spill costs may never undercut a proven exact optimum, and
/// where exhaustive search is affordable it must agree with the
/// branch-and-bound cost exactly.
OracleOutcome checkHeuristicVsExact(const OracleContext &Ctx) {
  AllocationProblem P =
      buildSsaProblem(*Ctx.Ssa, *Ctx.Target, Ctx.Case->Budgets, Ctx.WS);
  OptimalBnBAllocator BnB;
  AllocationResult Exact = BnB.allocate(P, Ctx.WS);
  if (!Exact.Proven)
    return {}; // No proven anchor; nothing to compare against.
  if (!isFeasibleAllocation(P, Exact.Allocated))
    return fail("BnB allocation violates a pressure constraint");
  for (const char *Name : {"bfpl", "lh"}) {
    AllocationResult H = makeAllocator(Name)->allocateProblem(P, Ctx.WS);
    if (!isFeasibleAllocation(P, H.Allocated))
      return fail(std::string(Name) +
                  " allocation violates a pressure constraint");
    if (H.SpillCost < Exact.SpillCost)
      return fail(std::string(Name) + " spill cost " +
                  std::to_string(H.SpillCost) + " beats proven optimum " +
                  std::to_string(Exact.SpillCost));
  }
  if (P.graph().numVertices() <= kBruteForceVertexLimit) {
    AllocationResult Brute = BruteForceAllocator().allocate(P);
    if (Brute.SpillCost != Exact.SpillCost)
      return fail("brute-force optimum " + std::to_string(Brute.SpillCost) +
                  " disagrees with BnB optimum " +
                  std::to_string(Exact.SpillCost));
  }
  return {};
}

/// The layered heuristic's register assignment must give interfering
/// same-class vertices distinct registers, stay within each class's
/// budget, and only assign registers to allocated vertices.
OracleOutcome checkAssignmentValid(const OracleContext &Ctx) {
  AllocationProblem P =
      buildSsaProblem(*Ctx.Ssa, *Ctx.Target, Ctx.Case->Budgets, Ctx.WS);
  for (RegClassId C = 0; C < P.numClasses(); ++C) {
    std::vector<VertexId> ToGlobal;
    AllocationProblem Sub =
        P.multiClass() ? P.projectClass(C, ToGlobal, Ctx.WS) : P;
    if (Sub.graph().numVertices() == 0)
      continue;
    LayeredHeuristicResult LH = layeredHeuristicAllocate(Sub, Ctx.WS);
    const std::vector<char> &Allocated = LH.Allocation.Allocated;
    if (Allocated.size() != Sub.graph().numVertices() ||
        LH.RegisterOf.size() != Sub.graph().numVertices())
      return fail("lh result size mismatch in class " + std::to_string(C));
    for (VertexId V = 0; V < Sub.graph().numVertices(); ++V) {
      if (!Allocated[V]) {
        if (LH.RegisterOf[V] != LayeredHeuristicResult::kNoRegister)
          return fail("spilled vertex carries a register in class " +
                      std::to_string(C));
        continue;
      }
      if (LH.RegisterOf[V] >= Sub.uniformBudget())
        return fail("register index exceeds budget " +
                    std::to_string(Sub.uniformBudget()) + " in class " +
                    std::to_string(C));
      for (VertexId U : Sub.graph().neighbors(V))
        if (Allocated[U] && LH.RegisterOf[V] == LH.RegisterOf[U])
          return fail("interfering pair shares register " +
                      std::to_string(LH.RegisterOf[V]) + " in class " +
                      std::to_string(C));
    }
    if (!isFeasibleAllocation(Sub, Allocated))
      return fail("lh allocation violates a pressure constraint in class " +
                  std::to_string(C));
    if (!P.multiClass())
      break; // Sub aliases P; one pass covers it.
  }
  return {};
}

/// The baseline backends (graph coloring, both linear-scan policies) must
/// produce feasible, budget-respecting allocations whose spill cost never
/// undercuts a proven exact optimum.  Nothing differentially checked these
/// allocators before: they are the paper's comparison points, so a silently
/// infeasible baseline would skew every figure.
OracleOutcome checkBaselineBackends(const OracleContext &Ctx) {
  AllocationProblem P =
      buildSsaProblem(*Ctx.Ssa, *Ctx.Target, Ctx.Case->Budgets, Ctx.WS);
  OptimalBnBAllocator BnB;
  AllocationResult Exact = BnB.allocate(P, Ctx.WS);
  for (const char *Name : {"gc", "ls", "bls"}) {
    std::unique_ptr<Allocator> A = makeAllocator(Name);
    if (A->requiresIntervals() && !P.Intervals)
      return fail(std::string(Name) +
                  ": SSA problem unexpectedly lacks live intervals");
    AllocationResult R = A->allocateProblem(P, Ctx.WS);
    if (R.Allocated.size() != P.graph().numVertices())
      return fail(std::string(Name) + " flag vector size mismatch");
    if (!isFeasibleAllocation(P, R.Allocated))
      return fail(std::string(Name) +
                  " allocation violates a pressure constraint");
    if (Exact.Proven && R.SpillCost < Exact.SpillCost)
      return fail(std::string(Name) + " spill cost " +
                  std::to_string(R.SpillCost) + " beats proven optimum " +
                  std::to_string(Exact.SpillCost));
  }
  return {};
}

/// Shared-workspace runs must be byte-identical to fresh runs: a
/// SolverWorkspace carries capacity, never state.
OracleOutcome checkWorkspacePure(const OracleContext &Ctx) {
  if (!Ctx.WS)
    return {}; // Nothing to compare without a long-lived workspace.
  AllocationProblem Fresh =
      buildSsaProblem(*Ctx.Ssa, *Ctx.Target, Ctx.Case->Budgets);
  AllocationProblem Reused =
      buildSsaProblem(*Ctx.Ssa, *Ctx.Target, Ctx.Case->Budgets, Ctx.WS);
  if (Fresh.Peo.Order != Reused.Peo.Order)
    return fail("workspace reuse changed the elimination order");
  if (!(Fresh.Constraints == Reused.Constraints) ||
      Fresh.Constraints.size() != Reused.Constraints.size())
    return fail("workspace reuse changed the pressure constraints");

  for (const char *Name : {"bfpl", "lh", "optimal"}) {
    AllocationResult A = makeAllocator(Name)->allocateProblem(Fresh);
    AllocationResult B = makeAllocator(Name)->allocateProblem(Reused, Ctx.WS);
    if (A.Allocated != B.Allocated || A.SpillCost != B.SpillCost)
      return fail(std::string(Name) +
                  " diverges between fresh and reused workspaces");
  }
  return {};
}

/// Print -> parse -> print must be stable: the first print of a parsed
/// function re-prints byte-identically ever after, and parsing preserves
/// the structural content hash.
OracleOutcome checkParseRoundtrip(const OracleContext &Ctx) {
  std::string First = Ctx.Case->F.toString();
  ParsedFunction P1 = parseFunction(First);
  if (!P1.Ok)
    return fail("own toString() fails to parse at line " +
                std::to_string(P1.Line) + ": " + P1.Error);
  std::string Second = P1.F.toString();
  ParsedFunction P2 = parseFunction(Second);
  if (!P2.Ok)
    return fail("re-printed form fails to parse at line " +
                std::to_string(P2.Line) + ": " + P2.Error);
  if (P2.F.toString() != Second)
    return fail("print/parse round trip is not stable from second print");
  if (hashFunction(P1.F) != hashFunction(P2.F))
    return fail("round trip changed the structural content hash");
  std::string VerifyError;
  if (!verifyFunction(P2.F, /*ExpectSsa=*/false, &VerifyError))
    return fail("round-tripped function fails verification: " + VerifyError);
  return {};
}

/// A warm driver's cache-transparent report must be byte-identical to a
/// fresh driver's report over the same jobs (timing excluded, per-task
/// detail included -- that is where the cache_hit flags live).
OracleOutcome checkCacheTransparent(const OracleContext &Ctx) {
  Suite S = singleFunctionSuite(Ctx.Case->F, "fuzz");
  std::vector<BatchJob> Jobs = singleJob(S, *Ctx.Target, Ctx.Case->Budgets);
  // Duplicate the job so intra-batch twin classification is exercised too.
  Jobs.push_back(Jobs.front());

  BatchDriver FreshDriver(1);
  std::string FreshJson =
      driverReportToJson(FreshDriver.run(Jobs), /*IncludeTiming=*/false,
                         /*IncludeTasks=*/true)
          .dump(2);

  BatchDriver WarmDriver(1);
  WarmDriver.run(Jobs); // Warm the persistent caches.
  std::string WarmJson =
      driverReportToJson(WarmDriver.run(Jobs, /*CacheTransparent=*/true),
                         /*IncludeTiming=*/false, /*IncludeTasks=*/true)
          .dump(2);
  if (FreshJson != WarmJson)
    return fail("warm cache-transparent report differs from a fresh run");
  return {};
}

/// Delta mode must be report-transparent: a resubmission solved against a
/// retained base (driver/BatchDriver.h BaseKey/RetainKey, the engine under
/// the server's submit_ir `base` field) yields report bytes identical to a
/// fresh driver's full solve of the same edited function.  Two edits per
/// case: a frequency bump, which tier-A compatibility must absorb through
/// the delta path (counted as a hit), and a structural use-list edit,
/// which it must reject into a counted full-solve fallback -- silent
/// wrong-path answers are exactly what the counters exist to rule out.
OracleOutcome checkDeltaVsFull(const OracleContext &Ctx) {
  const std::vector<unsigned> &Budgets = Ctx.Case->Budgets;
  // Any nonzero key works: the registry is keyed by the caller, not by
  // content, and this driver pair is private to the oracle.
  const uint64_t BaseKey = hashFunction(*Ctx.Ssa) | 1;

  Suite BaseS = singleFunctionSuite(*Ctx.Ssa, "fuzz");
  std::vector<BatchJob> BaseJobs = singleJob(BaseS, *Ctx.Target, Budgets);
  BaseJobs[0].RetainKey = BaseKey;

  auto deltaVsFull = [&](const Function &Edited, bool ExpectHit,
                         std::string &Failure) {
    Suite EditS = singleFunctionSuite(Edited, "fuzz");

    BatchDriver Warm(1);
    Warm.run(BaseJobs); // Solve + retain the base.
    if (!Warm.hasBase(BaseKey)) {
      Failure = "driver did not retain the base under its RetainKey";
      return false;
    }
    std::vector<BatchJob> DeltaJobs = singleJob(EditS, *Ctx.Target, Budgets);
    DeltaJobs[0].BaseKey = BaseKey;
    std::string DeltaJson =
        driverReportToJson(Warm.run(DeltaJobs, /*CacheTransparent=*/true),
                           /*IncludeTiming=*/false, /*IncludeTasks=*/true)
            .dump(2);

    BatchDriver Fresh(1);
    std::string FullJson =
        driverReportToJson(Fresh.run(singleJob(EditS, *Ctx.Target, Budgets)),
                           /*IncludeTiming=*/false, /*IncludeTasks=*/true)
            .dump(2);
    if (DeltaJson != FullJson) {
      Failure = "delta-solved report differs from a fresh full solve";
      return false;
    }
    DriverDeltaCounters DC = Warm.deltaCounters();
    if (ExpectHit && (DC.Hits != 1 || DC.Fallbacks != 0)) {
      Failure = "frequency edit did not take the delta path (hits=" +
                std::to_string(DC.Hits) +
                ", fallbacks=" + std::to_string(DC.Fallbacks) + ")";
      return false;
    }
    if (!ExpectHit && DC.Fallbacks == 0) {
      Failure = "structural edit was not counted as a delta fallback";
      return false;
    }
    return true;
  };

  std::string Failure;

  // Edit 1: profile drift.  Same structure, different block frequency --
  // the delta warm-start must engage and stay byte-transparent.
  Function Bumped = *Ctx.Ssa;
  Bumped.block(0).Frequency += 9;
  if (!deltaVsFull(Bumped, /*ExpectHit=*/true, Failure))
    return fail(Failure);

  // Edit 2: a structural change -- the entry terminator gains a use of a
  // value defined earlier in the block.  Compatibility must refuse the
  // base and fall back to a counted full solve.
  Function Edited = *Ctx.Ssa;
  BasicBlock &Entry = Edited.block(0);
  ValueId Reused = kNoValue;
  for (size_t I = 0; I + 1 < Entry.Instrs.size() && Reused == kNoValue; ++I)
    for (ValueId D : Entry.Instrs[I].Defs)
      Reused = D;
  if (Reused != kNoValue && !Entry.Instrs.empty()) {
    Entry.Instrs.back().Uses.push_back(Reused);
    if (!deltaVsFull(Edited, /*ExpectHit=*/false, Failure))
      return fail(Failure);
  }
  return {};
}

/// Observability must be free of observable effect: running the pipeline
/// with tracing and phase accounting fully enabled yields a timing-free
/// report byte-identical to a quiet run.  Guards the zero-cost-when-
/// disabled contract from the other side -- instrumentation may measure,
/// never steer.
OracleOutcome checkMetricsQuiet(const OracleContext &Ctx) {
  Suite S = singleFunctionSuite(Ctx.Case->F, "fuzz");
  std::vector<BatchJob> Jobs = singleJob(S, *Ctx.Target, Ctx.Case->Budgets);

  // Quiet run first, with every obs feature off (the fuzz driver leaves
  // them off; force it anyway so the oracle is self-contained).
  TraceCollector &TC = TraceCollector::global();
  bool WasTracing = TC.enabled();
  bool WasDet = TC.deterministic();
  TC.disable();
  BatchDriver QuietDriver(1);
  std::string QuietJson =
      driverReportToJson(QuietDriver.run(Jobs), /*IncludeTiming=*/false,
                         /*IncludeTasks=*/true)
          .dump(2);

  // Instrumented run: deterministic tracing, the request-scoped event
  // log, a live per-job phase sink (which switches phase accounting on),
  // the sink handed to the timing-free serializer, and a request trace
  // consuming it -- every observability surface at once.
  obs::EventLog &Events = obs::EventLog::global();
  bool WasEvents = Events.enabled();
  TC.enable(/*Deterministic=*/true);
  Events.setEnabled(true);
  Events.record(obs::EventKind::RequestStart, 0, "fuzz-metrics-quiet");
  BatchDriver LoudDriver(1);
  std::vector<PhaseTotals> JobPhases;
  DriverReport Loud =
      LoudDriver.run(Jobs, /*CacheTransparent=*/false, &JobPhases);
  obs::RequestTrace Trace;
  Trace.begin("fuzz-metrics-quiet", std::chrono::steady_clock::now());
  Trace.attachJobPhases(JobPhases);
  Events.record(obs::EventKind::RequestEnd, 0, Trace.id().c_str());
  TC.disable();
  TC.clear();
  Events.setEnabled(WasEvents);
  if (WasTracing)
    TC.enable(WasDet);

  if (JobPhases.size() != Jobs.size())
    return fail("phase sink did not report one entry per job");

  std::string LoudJson =
      driverReportToJson(Loud, /*IncludeTiming=*/false,
                         /*IncludeTasks=*/true, &JobPhases)
          .dump(2);
  if (QuietJson != LoudJson)
    return fail("timing-free report changed when tracing/metrics were on");
  return {};
}

/// The allocation server's submit_ir response must be byte-identical to
/// a direct fresh BatchDriver run of the same single-function suite, and
/// that run's outcome must equal the pipeline run on the submitted SSA
/// function itself.
OracleOutcome checkServeDirect(const OracleContext &Ctx) {
  if (!Ctx.ServeClient)
    return {}; // Oracle disabled (no in-process server).

  ServiceRequest Req;
  Req.K = ServiceRequest::Kind::SubmitIr;
  Req.IrText = Ctx.Ssa->toString();
  Req.TargetName = Ctx.Case->TargetName;
  Req.Regs = {Ctx.Case->Budgets.empty() ? 4u : Ctx.Case->Budgets[0]};
  Req.ClassRegs = classOverrides(*Ctx.Target, Ctx.Case->Budgets);
  Req.Details = true;

  std::string Response, Error;
  if (!Ctx.ServeClient->call(Client::makeSubmitIrRequest(Req), Response,
                             &Error))
    return fail("server transport failure: " + Error);
  if (Client::isErrorResponse(Response))
    return fail("server rejected the case: " + Response);

  // Mirror Server::Impl::handleSubmitIr's job construction exactly.
  ParsedFunction Parsed = parseFunction(Req.IrText);
  if (!Parsed.Ok)
    return fail("ssa text failed to re-parse: " + Parsed.Error);
  Suite S = singleFunctionSuite(Parsed.F, "submitted");
  std::vector<BatchJob> Jobs = singleJob(S, *Ctx.Target, Ctx.Case->Budgets);
  BatchDriver Direct(Ctx.ServeThreads);
  DriverReport Report = Direct.run(Jobs);
  std::string DirectJson =
      driverReportToJson(Report, /*IncludeTiming=*/false,
                         /*IncludeTasks=*/true)
          .dump(2) +
      "\n";
  if (Response != DirectJson)
    return fail("server response differs from a direct driver run");

  // Server and direct run share the driver, so a driver defect (such as
  // re-converting SSA input) passes the byte comparison on both sides;
  // anchor the outcome to the pipeline on the SSA function itself.  Input
  // with phis is solved as submitted: the re-parsed text, whose values the
  // first parse renumbers by textual order (solver tie-breaks follow value
  // ids).  Phi-free input still passes SSA construction, which renumbers
  // it back into the dominator-tree order *Ctx.Ssa was built with.
  const Function &Submitted = S.Programs[0].Functions[0];
  const JobReport &JR = Report.Jobs[0];
  PipelineResult Ref = runAllocationPipeline(
      hasPhis(Submitted) ? Submitted : *Ctx.Ssa, *Ctx.Target, JR.Job.Budgets,
      Jobs[0].Options, Ctx.WS);
  const TaskOutcome &Out = JR.Tasks[0].Out;
  if (Out.SpillCost != Ref.TotalSpillCost ||
      Out.NumLoads != Ref.Spills.NumLoads ||
      Out.NumStores != Ref.Spills.NumStores ||
      Out.LoadsFolded != Ref.LoadsFolded || Out.Rounds != Ref.Rounds ||
      Out.FinalMaxLive != Ref.FinalMaxLive || Out.Fits != Ref.Fits)
    return fail("driver outcome differs from the pipeline run on the SSA "
                "function (spill cost " +
                std::to_string(Out.SpillCost) + " vs " +
                std::to_string(Ref.TotalSpillCost) + ")");
  return {};
}

} // namespace

const std::vector<Oracle> &layra::oracleRegistry() {
  static const std::vector<Oracle> Registry{
      {"heuristic-vs-exact",
       "heuristic spill cost never beats a proven BnB/brute optimum",
       checkHeuristicVsExact, false},
      {"assignment-valid",
       "no interfering same-class pair shares a register; budgets held",
       checkAssignmentValid, false},
      {"baseline-backends",
       "gc/ls/bls allocations are feasible and never beat a proven optimum",
       checkBaselineBackends, false},
      {"workspace-pure",
       "shared-SolverWorkspace runs are byte-equal to fresh runs",
       checkWorkspacePure, false},
      {"parse-roundtrip",
       "textual IR print/parse round trip is stable and hash-preserving",
       checkParseRoundtrip, false},
      {"cache-transparent",
       "warm BatchDriver cache-transparent reports equal fresh reports",
       checkCacheTransparent, false},
      {"delta-vs-full",
       "delta warm-start reports equal fresh full solves; edits hit/fall back",
       checkDeltaVsFull, false},
      {"metrics-quiet",
       "tracing/phase accounting on vs off yields byte-identical reports",
       checkMetricsQuiet, false},
      {"serve-direct",
       "layra-serve submit_ir responses equal direct driver runs byte-for-byte",
       checkServeDirect, true},
  };
  return Registry;
}

const Oracle *layra::findOracle(const std::string &Name) {
  for (const Oracle &O : oracleRegistry())
    if (Name == O.Name)
      return &O;
  return nullptr;
}

OracleOutcome layra::runOracle(const Oracle &O, const OracleContext &Ctx) {
  OracleOutcome Outcome = O.Run(Ctx);
  if (Outcome.Ok && Ctx.BreakOracle == O.Name) {
    // The planted bug: deterministic, minimizable (any copy instruction
    // triggers it), and replayable from a reproducer file.
    for (const BasicBlock &BB : Ctx.Case->F.blocks())
      for (const Instruction &I : BB.Instrs)
        if (I.Op == Opcode::Copy)
          return fail("planted failure (--break-oracle): function contains "
                      "a copy instruction");
  }
  return Outcome;
}
