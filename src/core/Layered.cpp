//===- core/Layered.cpp - Layered-optimal allocation (the paper) -----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "core/Layered.h"

#include "core/SolverWorkspace.h"
#include "core/StepLayer.h"
#include "graph/StableSet.h"
#include "support/Compiler.h"

#include <algorithm>

using namespace layra;

namespace {
/// Working state of one layered run.  All buffers are checked out of the
/// workspace, so consecutive layers (and consecutive runs sharing one
/// workspace) reuse the same arenas.
struct LayeredState {
  const AllocationProblem &P;
  const LayeredOptions &Opt;
  SolverWorkspace &WS;
  std::vector<char> &Candidates;       // Still eligible for allocation.
  std::vector<char> &Allocated;        // Result flags.
  std::vector<unsigned> &PerClique;    // Allocated count per maximal clique.
  std::vector<char> &CliqueClosed;     // Clique reached R allocated vertices.
  /// Candidate neighbors per vertex (biased runs only): kept current as
  /// vertices leave the candidate set, so each solve spends O(E) on
  /// degrees in total instead of O(E) per layer.
  std::vector<unsigned> &CandidateDegree;
  /// Clique tree for the step >= 2 DP; built once per run on first use so
  /// every layer shares it.
  CliqueTree StepTree;
  bool StepTreeBuilt = false;

  LayeredState(const AllocationProblem &P, const LayeredOptions &Opt,
               SolverWorkspace &WS)
      : P(P), Opt(Opt), WS(WS),
        Candidates(
            WS.acquire(WS.Layered.Candidates, P.graph().numVertices(), char(1))),
        Allocated(
            WS.acquire(WS.Layered.Allocated, P.graph().numVertices(), char(0))),
        PerClique(WS.acquire(WS.Layered.PerClique, P.cliques().numCliques(), 0u)),
        CliqueClosed(WS.acquire(WS.Layered.CliqueClosed,
                                P.cliques().numCliques(), char(0))),
        CandidateDegree(WS.acquire(WS.Layered.CandidateDegree,
                                   Opt.Biased ? P.graph().numVertices() : 0,
                                   0u)) {
    for (VertexId V = 0; V < CandidateDegree.size(); ++V)
      CandidateDegree[V] = P.graph().degree(V);
  }

  /// Takes \p V out of the candidate set (no-op if it already left).
  void dropCandidate(VertexId V) {
    if (!Candidates[V])
      return;
    Candidates[V] = 0;
    if (Opt.Biased)
      for (VertexId U : P.graph().neighbors(V))
        --CandidateDegree[U];
  }

  /// Weights for the next layer: raw, or biased by the remaining
  /// interference degree (paper §4.1).  Biasing w -> w*|V| + |adj| preserves
  /// the order of distinct weights and breaks ties toward vertices whose
  /// allocation removes more interference among the remaining candidates.
  /// Fills the workspace weight buffer in place.
  const std::vector<Weight> &layerWeights() {
    unsigned N = P.graph().numVertices();
    std::vector<Weight> &W = WS.acquire(WS.Layered.LayerWeights, N, Weight(0));
    for (VertexId V = 0; V < N; ++V) {
      if (!Candidates[V])
        continue;
      if (!Opt.Biased) {
        W[V] = P.graph().weight(V);
        continue;
      }
      W[V] = P.graph().weight(V) * static_cast<Weight>(N) +
             static_cast<Weight>(CandidateDegree[V]);
    }
    return W;
  }

  /// Computes one optimal layer of at most \p Bound registers over the
  /// current candidates.  Empty result means no remaining candidate has
  /// positive weight.
  std::vector<VertexId> computeLayer(unsigned Bound) {
    const std::vector<Weight> &W = layerWeights();
    if (Bound == 1)
      return maximumWeightedStableSetChordal(P.graph(), P.Peo, W, Candidates, &WS)
          .Set;
    if (!StepTreeBuilt) {
      StepTree = buildCliqueTree(P.graph(), P.cliques());
      StepTreeBuilt = true;
    }
    return optimalBoundedLayer(P, Candidates, W, Bound, &WS, &StepTree);
  }

  /// Marks \p Layer allocated and removes it from the candidates.
  void commitLayer(const std::vector<VertexId> &Layer) {
    for (VertexId V : Layer) {
      assert(Candidates[V] && !Allocated[V] && "layer reused a vertex");
      Allocated[V] = 1;
      dropCandidate(V);
    }
  }

  /// Paper Algorithm 4 (UPDATE): accounts freshly allocated vertices per
  /// clique; cliques that reach R allocated vertices are closed and their
  /// remaining vertices leave the candidate set.
  void updateCliques(const std::vector<VertexId> &Fresh) {
    for (VertexId V : Fresh)
      for (unsigned C : P.cliques().CliquesOf[V]) {
        if (CliqueClosed[C])
          continue;
        if (++PerClique[C] < P.uniformBudget())
          continue;
        CliqueClosed[C] = 1;
        for (VertexId U : P.cliques().Cliques[C])
          dropCandidate(U);
      }
  }
};
} // namespace

AllocationResult layra::layeredAllocate(const AllocationProblem &P,
                                        const LayeredOptions &Options,
                                        SolverWorkspace *WS) {
  if (!P.Chordal)
    layraFatalError("layeredAllocate requires a chordal instance; "
                    "use layeredHeuristicAllocate for general graphs");
  assert(Options.Step >= 1 && Options.Step <= kMaxLayerStep &&
         "unsupported step");
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();

  LayeredState S(P, Options, *WS);
  unsigned R = P.uniformBudget();

  // Phase 1 (paper Algorithm 2): stack optimal layers until R registers are
  // filled.  Each layer raises every clique's allocated count by at most the
  // layer bound, so the union stays R-feasible.
  unsigned Count = 0;
  while (Count < R) {
    unsigned Bound = std::min(Options.Step, R - Count);
    std::vector<VertexId> Layer = S.computeLayer(Bound);
    if (Layer.empty())
      break; // Only zero-weight (or no) candidates remain.
    S.commitLayer(Layer);
    if (Options.FixedPoint)
      S.updateCliques(Layer);
    Count += Bound;
  }

  // Phase 2 (paper Algorithm 3, lines 8-13): allocate any vertex whose
  // cliques still have spare registers, one stable-set layer at a time,
  // until nothing changes.
  if (Options.FixedPoint) {
    // Close cliques the first phase saturated (Algorithm 3 line 8 calls
    // UPDATE once before the loop; updateCliques above already accounted
    // the counts, so just sweep for saturated cliques).
    for (unsigned C = 0; C < P.cliques().numCliques(); ++C)
      if (!S.CliqueClosed[C] && S.PerClique[C] >= R) {
        S.CliqueClosed[C] = 1;
        for (VertexId U : P.cliques().Cliques[C])
          S.dropCandidate(U);
      }
    for (;;) {
      std::vector<VertexId> Layer = S.computeLayer(1);
      if (Layer.empty())
        break;
      S.commitLayer(Layer);
      S.updateCliques(Layer);
    }
  }

  // The result owns its flags: copy them out of the workspace buffer at
  // exact size so the arena keeps its capacity for the next run.
  AllocationResult Result = AllocationResult::fromFlags(
      P.graph(), std::vector<char>(S.Allocated.begin(), S.Allocated.end()));
  assert(isFeasibleAllocation(P, Result.Allocated) &&
         "layered allocation violated a clique constraint");
  return Result;
}
