//===- core/StepLayer.cpp - Optimal bounded layers (step >= 2) -------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
//
// Implementation notes: the DP over the clique tree stores, per node, the
// subsets of the (masked) bag with at most Bound vertices.  Subsets are
// encoded as 64-bit masks over the bag's local ordering, which keeps the
// per-state footprint small enough for the exact solver to afford R ~ 8 on
// suite-sized cliques.  Consistency between a node and its children is
// enforced through the separator: child states are grouped by their
// projection onto the separator, keyed by a mask over the separator's
// canonical vertex order.
//
// All per-node tables live in SolverWorkspace::StepLayerScratch
// (clear-don't-free), so the repeated layers of one layered run -- and
// consecutive runs sharing a workspace -- re-fill warm buffers instead of
// reallocating them.
//
//===----------------------------------------------------------------------===//

#include "core/StepLayer.h"

#include "core/SolverWorkspace.h"
#include "obs/Trace.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstdint>

using namespace layra;

double layra::estimateBoundedLayerStates(const AllocationProblem &P,
                                         const std::vector<char> &Mask,
                                         unsigned Bound) {
  double Total = 0;
  for (const auto &K : P.cliques().Cliques) {
    unsigned M = 0;
    for (VertexId V : K)
      M += (Mask.empty() || Mask[V]) ? 1 : 0;
    // Sum of binomials C(M, 0..Bound), saturating.
    double Count = 1, Term = 1;
    for (unsigned J = 1; J <= std::min(Bound, M); ++J) {
      Term *= static_cast<double>(M - J + 1) / static_cast<double>(J);
      Count += Term;
      if (Count > 1e18)
        return 1e18;
    }
    Total += Count;
    if (Total > 1e18)
      return 1e18;
  }
  return Total;
}

namespace {
/// Index of \p Key in a node's projection index -- the parallel sorted
/// (ProjKeys, ProjVal, ProjState) arrays of a StepDpNode (cheaper than a
/// hash map at millions of states).  The binary search touches only the
/// packed key array; callers read ProjVal/ProjState at the returned index.
/// Returns SIZE_MAX when absent.
size_t findProjection(const SolverWorkspace::StepDpNode &Node, uint64_t Key) {
  auto It = std::lower_bound(Node.ProjKeys.begin(), Node.ProjKeys.end(), Key);
  if (It == Node.ProjKeys.end() || *It != Key)
    return SIZE_MAX;
  return static_cast<size_t>(It - Node.ProjKeys.begin());
}

/// Enumerates all subsets of {0..M-1} with at most Bound bits, in a
/// deterministic order with the empty set first.  \p Current and \p Next
/// are caller-owned scratch (kept warm across nodes).
void enumerateSubsets(unsigned M, unsigned Bound, std::vector<uint64_t> &Out,
                      std::vector<uint64_t> &Current,
                      std::vector<uint64_t> &Next) {
  Out.clear();
  Out.push_back(0);
  Current.clear();
  Current.push_back(0);
  for (unsigned Size = 1; Size <= std::min(Bound, M); ++Size) {
    Next.clear();
    for (uint64_t S : Current) {
      unsigned Lowest =
          S == 0 ? M : static_cast<unsigned>(__builtin_ctzll(S));
      for (unsigned B = 0; B < Lowest; ++B)
        Next.push_back(S | (uint64_t(1) << B));
    }
    for (uint64_t S : Next)
      Out.push_back(S);
    std::swap(Current, Next);
  }
}
} // namespace

std::vector<VertexId>
layra::optimalBoundedLayer(const AllocationProblem &P,
                           const std::vector<char> &Mask,
                           const std::vector<Weight> &Weights, unsigned Bound,
                           SolverWorkspace *WS, const CliqueTree *Tree) {
  assert(P.Chordal && "bounded layers require a chordal instance");
  assert(Bound >= 1 && "bound must be positive");
  PhaseSpan DpSpan(Phase::CliqueTreeDp);
  assert(Mask.size() == P.graph().numVertices() && "mask size mismatch");
  assert(Weights.size() == P.graph().numVertices() && "weights size mismatch");
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();

  const CliqueCover &Cover = P.cliques();
  CliqueTree OwnTree;
  if (!Tree) {
    OwnTree = buildCliqueTree(P.graph(), Cover);
    Tree = &OwnTree;
  }
  unsigned NumNodes = Cover.numCliques();

  // Per-node DP tables out of the workspace pool; inner buffers keep their
  // capacity from the previous layer.  Checked out through acquireCleared
  // so the DP tables -- the step path's largest arenas -- show up in the
  // workspace accounting like every other buffer.
  std::vector<SolverWorkspace::StepDpNode> &Tables = WS->Step.Nodes;
  if (Tables.size() < NumNodes)
    Tables.resize(NumNodes);
  for (unsigned C = 0; C < NumNodes; ++C) {
    SolverWorkspace::StepDpNode &T = Tables[C];
    WS->acquireCleared(T.Bag);
    WS->acquireCleared(T.States);
    WS->acquireCleared(T.Value);
    WS->acquireCleared(T.ProjKeys);
    WS->acquireCleared(T.ProjVal);
    WS->acquireCleared(T.ProjState);
    WS->acquireCleared(T.Sep);
  }
  WS->acquireCleared(WS->Step.SubsetsCurrent);
  WS->acquireCleared(WS->Step.SubsetsNext);

  // Masked bags and separators, both sorted by vertex id (canonical order).
  for (unsigned C = 0; C < NumNodes; ++C) {
    SolverWorkspace::StepDpNode &T = Tables[C];
    for (VertexId V : Cover.Cliques[C])
      if (Mask[V])
        T.Bag.push_back(V);
    std::sort(T.Bag.begin(), T.Bag.end());
    if (T.Bag.size() > 64)
      layraFatalError("optimalBoundedLayer: clique exceeds 64 live values");
    for (VertexId V : Tree->Separator[C])
      if (Mask[V])
        T.Sep.push_back(V);
    std::sort(T.Sep.begin(), T.Sep.end());
  }

  // Projection of a bag-subset mask onto a separator, as a mask over the
  // separator's canonical order.  Both lists are sorted by vertex id.
  auto Project = [](const std::vector<VertexId> &Bag, uint64_t SubsetMask,
                    const std::vector<VertexId> &Separator) {
    uint64_t Out = 0;
    size_t BagIdx = 0;
    for (size_t SepIdx = 0; SepIdx < Separator.size(); ++SepIdx) {
      while (BagIdx < Bag.size() && Bag[BagIdx] < Separator[SepIdx])
        ++BagIdx;
      assert(BagIdx < Bag.size() && Bag[BagIdx] == Separator[SepIdx] &&
             "separator vertex missing from bag");
      if (SubsetMask & (uint64_t(1) << BagIdx))
        Out |= uint64_t(1) << SepIdx;
    }
    return Out;
  };

  // Bottom-up sweep (children before parents).
  for (auto It = Tree->TopoOrder.rbegin(); It != Tree->TopoOrder.rend();
       ++It) {
    unsigned C = *It;
    SolverWorkspace::StepDpNode &T = Tables[C];
    enumerateSubsets(static_cast<unsigned>(T.Bag.size()), Bound, T.States,
                     WS->Step.SubsetsCurrent, WS->Step.SubsetsNext);
    T.Value.assign(T.States.size(), 0);

    // Weight of each bag vertex.
    std::vector<Weight> &BagWeight =
        WS->acquire(WS->Step.BagWeight, T.Bag.size(), Weight(0));
    for (size_t I = 0; I < T.Bag.size(); ++I)
      BagWeight[I] = Weights[T.Bag[I]];

    for (size_t S = 0; S < T.States.size(); ++S) {
      uint64_t StateMask = T.States[S];
      Weight Total = 0;
      uint64_t Bits = StateMask;
      while (Bits) {
        Total += BagWeight[static_cast<unsigned>(__builtin_ctzll(Bits))];
        Bits &= Bits - 1;
      }
      for (unsigned D : Tree->Children[C]) {
        uint64_t Proj = Project(T.Bag, StateMask, Tables[D].Sep);
        size_t Found = findProjection(Tables[D], Proj);
        assert(Found != SIZE_MAX &&
               "separator projection missing from child table");
        Total += Tables[D].ProjVal[Found];
      }
      T.Value[S] = Total;
    }

    // Group this node's states by projection onto its parent separator,
    // with the separator weight removed (counted at the parent).
    {
      auto &Agg = WS->acquireCleared(WS->Step.Agg);
      Agg.reserve(T.States.size());
      for (size_t S = 0; S < T.States.size(); ++S) {
        uint64_t Proj = Project(T.Bag, T.States[S], T.Sep);
        Weight SepWeight = 0;
        uint64_t Bits = Proj;
        while (Bits) {
          SepWeight +=
              Weights[T.Sep[static_cast<unsigned>(__builtin_ctzll(Bits))]];
          Bits &= Bits - 1;
        }
        Agg.push_back({Proj, T.Value[S] - SepWeight,
                       static_cast<uint32_t>(S)});
      }
      std::sort(Agg.begin(), Agg.end(),
                [](const SolverWorkspace::StepAggEntry &A,
                   const SolverWorkspace::StepAggEntry &B) {
                  if (A.Key != B.Key)
                    return A.Key < B.Key;
                  return A.Val > B.Val;
                });
      for (const SolverWorkspace::StepAggEntry &E : Agg)
        if (T.ProjKeys.empty() || T.ProjKeys.back() != E.Key) {
          T.ProjKeys.push_back(E.Key);
          T.ProjVal.push_back(E.Val);
          T.ProjState.push_back(E.State);
        }
    }

    // Children's big tables are no longer needed once the parent consumed
    // them -- but reconstruction walks down through the projection index
    // and States, so only drop Value for children (capacity is retained by
    // the pool for the next layer).
    for (unsigned D : Tree->Children[C])
      Tables[D].Value.clear();
  }

  // Reconstruction: pick the best root states and walk choices down via the
  // projection maps.
  std::vector<char> &Selected =
      WS->acquire(WS->Step.Selected, P.graph().numVertices(), char(0));
  auto &Work = WS->acquireCleared(WS->Step.Work); // (node, chosen mask)
  for (unsigned C = 0; C < NumNodes; ++C) {
    if (Tree->Parent[C] != ~0u)
      continue;
    const SolverWorkspace::StepDpNode &T = Tables[C];
    // Roots keep their Value arrays (nothing consumed them).
    size_t Best = 0;
    for (size_t S = 1; S < T.States.size(); ++S)
      if (T.Value[S] > T.Value[Best])
        Best = S;
    Work.push_back({C, T.States[Best]});
  }
  while (!Work.empty()) {
    auto [C, StateMask] = Work.back();
    Work.pop_back();
    const SolverWorkspace::StepDpNode &T = Tables[C];
    uint64_t Bits = StateMask;
    while (Bits) {
      Selected[T.Bag[static_cast<unsigned>(__builtin_ctzll(Bits))]] = 1;
      Bits &= Bits - 1;
    }
    for (unsigned D : Tree->Children[C]) {
      uint64_t Proj = Project(T.Bag, StateMask, Tables[D].Sep);
      size_t Found = findProjection(Tables[D], Proj);
      assert(Found != SIZE_MAX && "projection lost during reconstruction");
      Work.push_back({D, Tables[D].States[Tables[D].ProjState[Found]]});
    }
  }

  std::vector<VertexId> Out;
  for (VertexId V = 0; V < P.graph().numVertices(); ++V)
    if (Selected[V])
      Out.push_back(V);
  return Out;
}
