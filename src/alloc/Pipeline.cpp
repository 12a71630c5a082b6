//===- alloc/Pipeline.cpp - Iterative allocation pipeline ------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "alloc/Pipeline.h"

#include "core/Coalescing.h"
#include "core/Delta.h"
#include "core/ProblemBuilder.h"
#include "core/SolverWorkspace.h"
#include "ir/Liveness.h"
#include "ir/OperandFolding.h"
#include "obs/Trace.h"
#include "support/Compiler.h"

#include <optional>

using namespace layra;

PipelineResult layra::runAllocationPipeline(const Function &F,
                                            const TargetDesc &Target,
                                            unsigned NumRegisters,
                                            const PipelineOptions &Options,
                                            SolverWorkspace *WS) {
  std::vector<unsigned> Budgets =
      resolveClassBudgets(Target, NumRegisters, {});
  return runAllocationPipeline(F, Target, Budgets, Options, WS);
}

PipelineResult layra::runAllocationPipeline(
    const Function &F, const TargetDesc &Target,
    const std::vector<unsigned> &Budgets, const PipelineOptions &Options,
    SolverWorkspace *WS, PipelineDeltaContext *Delta) {
  assert(verifyFunction(F, /*ExpectSsa=*/true) &&
         "pipeline requires strict SSA input");
  PhaseSpan PipelineSpan(Phase::Pipeline);
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();
  std::unique_ptr<Allocator> Alloc = makeAllocator(Options.AllocatorName);
  if (!Alloc)
    layraFatalError("unknown allocator name in pipeline options");

  const DeltaBase *Base = Delta ? Delta->Base : nullptr;
  DeltaBase *Capture = Delta ? Delta->Capture : nullptr;
  assert(!(Base && Capture) && "a run either consumes a base or becomes one");
  if (Capture) {
    Capture->Ssa = F;
    Capture->AllocatorName = Options.AllocatorName;
  }
  bool ExactRound0 = false;
  // Live intervals cost a pass per build; only interval allocators read
  // them.
  const bool WithIntervals = Alloc->requiresIntervals();
  auto build = [&](const Function &Fn, ProblemBuildArtifacts *Artifacts) {
    return buildSsaProblem(Fn, Target, Budgets, WS, Artifacts, WithIntervals);
  };

  PipelineResult Out;
  Out.Rewritten = F;

  // The problem matching Out.Rewritten, when one has been built and no
  // rewrite invalidated it.  Rounds that exit the loop via `break` leave
  // it valid, so the final assignment reuses it instead of rebuilding --
  // one buildSsaProblem saved on every function that converges (which is
  // most of them), with identical results: the rebuild would run on the
  // exact same function.
  std::optional<AllocationProblem> Current;
  bool CurrentIsRound0 = false;

  // Round-0 problem: the only build the delta machinery touches.  A
  // compatible base sidesteps liveness/interference/MCS wholesale; a
  // capture run exports those artifacts for future deltas.  Both produce
  // the same problem a plain build would.
  auto buildRound0 = [&]() -> AllocationProblem {
    if (Base) {
      AllocationProblem P;
      if (buildDeltaProblem(*Base, F, Target, Budgets, P, ExactRound0,
                            WithIntervals)) {
        Delta->UsedDelta = true;
        return P;
      }
    }
    if (Capture) {
      ProblemBuildArtifacts Artifacts;
      AllocationProblem P = build(F, &Artifacts);
      Capture->Live = std::move(Artifacts.Live);
      Capture->Costs = std::move(Artifacts.Costs);
      return P;
    }
    return build(F, nullptr);
  };

  // Allocates \p P, warm-starting from the base when the round-0 problem
  // is provably identical to the base's (allocateProblem is a pure
  // function of the problem, so reusing its retained result is exact).
  // A capture run retains the first allocation of the round-0 problem.
  auto allocateCurrent = [&](const AllocationProblem &P,
                             bool IsRound0) -> AllocationResult {
    if (IsRound0 && Delta && Delta->UsedDelta && ExactRound0 &&
        Base->HasRound0 && Base->AllocatorName == Options.AllocatorName) {
      Delta->WarmStarted = true;
      return Base->Round0;
    }
    AllocationResult Result = [&] {
      PhaseSpan AllocSpan(Phase::Allocate);
      return Alloc->allocateProblem(P, WS);
    }();
    if (IsRound0 && Capture && !Capture->HasRound0) {
      Capture->Problem = P;
      Capture->Round0 = Result;
      Capture->HasRound0 = true;
    }
    return Result;
  };

  // Values spilled in an earlier round live only from def to the adjacent
  // store; spilling them again would be wasted motion, so they are pinned.
  std::vector<char> &Pinned =
      WS->acquire(WS->Pipeline.Pinned, F.numValues(), char(0));

  for (unsigned Round = 0; Round < Options.MaxRounds; ++Round) {
    PhaseSpan RoundSpan(Phase::SpillRound);
    ++Out.Rounds;
    Current.emplace(Round == 0
                        ? buildRound0()
                        : build(Out.Rewritten, nullptr));
    CurrentIsRound0 = (Round == 0);
    AllocationProblem &P = *Current;
    if (P.fitsBudgets())
      break; // Every class fits already; nothing to spill this round.

    // allocateProblem decomposes multi-class instances per register class;
    // single-class instances take the historical direct path.
    AllocationResult Result = allocateCurrent(P, CurrentIsRound0);
    // Pin-aware spill set: never re-spill a pinned value.
    std::vector<char> &Spilled =
        WS->acquire(WS->Pipeline.Spilled, Out.Rewritten.numValues(), char(0));
    unsigned NumSpilled = 0;
    for (VertexId V = 0; V < P.graph().numVertices(); ++V) {
      if (Result.Allocated[V] || (V < Pinned.size() && Pinned[V]))
        continue;
      Spilled[V] = 1;
      Out.TotalSpillCost += P.graph().weight(V);
      ++NumSpilled;
    }
    if (NumSpilled == 0)
      break; // Allocator found nothing (more) to spill.

    // One rewrite covers every class's spills; reload temporaries inherit
    // their value's class (ir/SpillRewriter.cpp).
    SpillRewriteStats Stats = rewriteSpills(Out.Rewritten, Spilled);
    Out.Spills.NumLoads += Stats.NumLoads;
    Out.Spills.NumStores += Stats.NumStores;
    Out.Spills.NumSlots += Stats.NumSlots;

    // CISC targets absorb single-use reloads into addressing modes, which
    // removes their temporaries before the next round measures pressure.
    if (Options.FoldMemoryOperands && Target.MaxMemOperands > 0) {
      PhaseSpan FoldSpan(Phase::OperandFold);
      Out.LoadsFolded +=
          foldMemoryOperands(Out.Rewritten, Target).LoadsFolded;
    }

    Pinned.resize(Out.Rewritten.numValues(), 0);
    for (VertexId V = 0; V < Spilled.size(); ++V)
      if (Spilled[V])
        Pinned[V] = 1;
    Current.reset(); // Rewritten changed; the problem no longer matches.
    CurrentIsRound0 = false;
  }

  // Final assignment over whatever still lives in registers.
  if (!Current) {
    Current.emplace(build(Out.Rewritten, nullptr));
    CurrentIsRound0 = false;
  }
  AllocationProblem &P = *Current;
  AllocationResult Final = allocateCurrent(P, CurrentIsRound0);
  Out.FinalMaxLive = P.maxLive();
  bool FinalFits = P.fitsBudgets();

  PhaseSpan AssignSpan(Phase::Assign);
  std::vector<Affinity> Affinities = collectAffinities(Out.Rewritten);
  Out.Regs = Options.AffinityBias
                 ? assignRegistersBiased(P, Final.Allocated, Affinities)
                 : assignRegisters(P, Final.Allocated);
  Out.TotalSpillCost += Final.SpillCost;
  Out.RemainingCopyCost =
      remainingCopyCost(Affinities, Final.Allocated, Out.Regs.RegisterOf);
  Out.Fits = FinalFits || (Final.SpillCost == 0 && Out.Regs.Success);
  Out.Fits = Out.Fits && Out.Regs.Success;
  return Out;
}
