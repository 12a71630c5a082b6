//===- tests/graph/KernelEquivalenceTest.cpp - Flat kernels vs references --===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
//
// The chordal kernels and the interference graph are built from flat
// arrays (intrusive MCS bucket lists, counting-sorted CSRs, a flat clique
// cover).  Every later result -- PEOs, cliques, layers, spill decisions --
// depends on their exact orders, so each is checked here against a plain
// nested-vector reference of the same algorithm, on random chordal graphs,
// on suite interference graphs and on graphs past the dense bit-matrix cap.
//
//===----------------------------------------------------------------------===//

#include "core/AllocationProblem.h"
#include "core/SolverWorkspace.h"
#include "graph/Chordal.h"
#include "graph/Generators.h"
#include "ir/Interference.h"
#include "ir/Liveness.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "ir/Target.h"
#include "suites/Suites.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

using namespace layra;

namespace {

/// Reference MCS: one stack per bucket, pushed on every count increment;
/// stale entries (visited, or superseded by a higher count) are skipped on
/// pop.
std::vector<VertexId> referenceMcs(const Graph &G) {
  unsigned N = G.numVertices();
  std::vector<std::vector<VertexId>> Buckets(N + 1);
  std::vector<unsigned> Count(N, 0);
  std::vector<char> Visited(N, 0);
  for (VertexId V = 0; V < N; ++V)
    Buckets[0].push_back(V);
  std::vector<VertexId> Visit;
  unsigned Top = 0;
  while (Visit.size() < N) {
    while (Buckets[Top].empty())
      --Top;
    VertexId V = Buckets[Top].back();
    Buckets[Top].pop_back();
    if (Visited[V] || Count[V] != Top)
      continue;
    Visited[V] = 1;
    Visit.push_back(V);
    for (VertexId U : G.neighbors(V)) {
      if (Visited[U])
        continue;
      ++Count[U];
      Buckets[Count[U]].push_back(U);
      Top = std::max(Top, Count[U]);
    }
  }
  std::reverse(Visit.begin(), Visit.end());
  return Visit;
}

/// Reference PEO test straight from the definition: every pair of later
/// neighbors of every vertex is adjacent.
bool referenceIsPeo(const Graph &G, const EliminationOrder &Order) {
  for (VertexId V = 0; V < G.numVertices(); ++V) {
    std::vector<VertexId> Later;
    for (VertexId U : G.neighbors(V))
      if (Order.Position[U] > Order.Position[V])
        Later.push_back(U);
    for (size_t I = 0; I < Later.size(); ++I)
      for (size_t J = I + 1; J < Later.size(); ++J)
        if (!G.hasEdge(Later[I], Later[J]))
          return false;
  }
  return true;
}

/// Reference Fulkerson-Gross cover with one vector per clique and per
/// vertex: C_v = later(v) + v for every v no child absorbs, in PEO order.
struct ReferenceCover {
  std::vector<std::vector<VertexId>> Cliques;
  std::vector<std::vector<unsigned>> CliquesOf;
};

ReferenceCover referenceCover(const Graph &G, const EliminationOrder &Peo) {
  unsigned N = G.numVertices();
  auto Later = [&](VertexId V) {
    std::vector<VertexId> Out;
    for (VertexId U : G.neighbors(V))
      if (Peo.Position[U] > Peo.Position[V])
        Out.push_back(U);
    return Out;
  };
  std::vector<VertexId> Parent(N, ~0u);
  std::vector<size_t> LaterCount(N, 0);
  for (VertexId V = 0; V < N; ++V) {
    std::vector<VertexId> L = Later(V);
    LaterCount[V] = L.size();
    for (VertexId U : L)
      if (Parent[V] == ~0u || Peo.Position[U] < Peo.Position[Parent[V]])
        Parent[V] = U;
  }
  std::vector<char> Absorbed(N, 0);
  for (VertexId U = 0; U < N; ++U)
    if (Parent[U] != ~0u && LaterCount[U] == LaterCount[Parent[U]] + 1)
      Absorbed[Parent[U]] = 1;
  ReferenceCover Ref;
  Ref.CliquesOf.resize(N);
  for (VertexId V : Peo.Order) {
    if (Absorbed[V])
      continue;
    std::vector<VertexId> Clique = Later(V);
    Clique.push_back(V);
    for (VertexId U : Clique)
      Ref.CliquesOf[U].push_back(static_cast<unsigned>(Ref.Cliques.size()));
    Ref.Cliques.push_back(std::move(Clique));
  }
  return Ref;
}

void expectCoverEquals(const CliqueCover &Got, const ReferenceCover &Ref,
                       const char *What) {
  ASSERT_EQ(Got.numCliques(), Ref.Cliques.size()) << What;
  for (unsigned K = 0; K < Got.numCliques(); ++K) {
    ArrayView<VertexId> Clique = Got.Cliques[K];
    ASSERT_EQ(std::vector<VertexId>(Clique.begin(), Clique.end()),
              Ref.Cliques[K])
        << What << ": clique " << K;
  }
  ASSERT_EQ(Got.CliquesOf.size(), Ref.CliquesOf.size()) << What;
  for (VertexId V = 0; V < Ref.CliquesOf.size(); ++V) {
    ArrayView<unsigned> In = Got.CliquesOf[V];
    ASSERT_EQ(std::vector<unsigned>(In.begin(), In.end()), Ref.CliquesOf[V])
        << What << ": vertex " << V;
  }
}

/// MCS order, PEO verdict and clique cover against the references, with
/// and without a (reused) workspace.
void checkChordalKernels(const Graph &G, SolverWorkspace &WS,
                         const char *What) {
  EliminationOrder Peo = maximumCardinalitySearch(G, &WS);
  ASSERT_EQ(Peo.Order, referenceMcs(G)) << What;
  EXPECT_EQ(maximumCardinalitySearch(G).Order, Peo.Order) << What;
  bool IsPeo = isPerfectEliminationOrder(G, Peo, &WS);
  ASSERT_EQ(IsPeo, referenceIsPeo(G, Peo)) << What;
  if (!IsPeo)
    return;
  expectCoverEquals(maximalCliquesChordal(G, Peo, &WS), referenceCover(G, Peo),
                    What);
}

Graph bigChordalGraph(uint64_t Seed) {
  Rng R(Seed);
  ChordalGenOptions Opt;
  Opt.NumVertices = Graph::kMaxDenseVertices + 904;
  Opt.TreeSize = 3000;
  Opt.SubtreeSpread = 0.002;
  return randomChordalGraph(R, Opt);
}

/// Strict-SSA interference graphs of every function of \p SuiteName.
std::vector<Graph> suiteGraphs(const std::string &SuiteName) {
  std::vector<Graph> Out;
  Suite S = makeSuite(SuiteName);
  for (const SuiteProgram &Prog : S.Programs)
    for (const Function &F : Prog.Functions) {
      Function Ssa = convertToSsa(F).Ssa;
      Liveness Live(Ssa);
      Out.push_back(buildInterference(Ssa, Live, computeSpillCosts(Ssa, ST231),
                                      nullptr, /*CollectPointSets=*/false)
                        .G);
    }
  return Out;
}

} // namespace

TEST(KernelEquivalenceTest, ChordalKernelsMatchReferencesOnRandomGraphs) {
  Rng R(2026);
  SolverWorkspace WS;
  for (int Round = 0; Round < 60; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 1 + static_cast<unsigned>(R.nextBelow(120));
    Opt.TreeSize = 2 + static_cast<unsigned>(R.nextBelow(60));
    Opt.SubtreeSpread = 0.05 + 0.4 * R.nextDouble();
    Graph G = randomChordalGraph(R, Opt);
    checkChordalKernels(G, WS, "random chordal");
    // General graphs: MCS still has one defined order, and the PEO check
    // must agree with the definition whatever the verdict.
    Graph H = randomGraph(R, Opt.NumVertices, 0.1, 50);
    checkChordalKernels(H, WS, "random general");
  }
}

TEST(KernelEquivalenceTest, ChordalKernelsMatchReferencesOnSuiteGraphs) {
  SolverWorkspace WS;
  size_t Checked = 0;
  for (const char *Name : {"eembc", "lao-kernels"})
    for (const Graph &G : suiteGraphs(Name)) {
      checkChordalKernels(G, WS, Name);
      ++Checked;
    }
  EXPECT_GT(Checked, 50u);
}

TEST(KernelEquivalenceTest, ChordalKernelsMatchReferencesPastDenseCap) {
  SolverWorkspace WS;
  Graph G = bigChordalGraph(7);
  ASSERT_GT(G.numVertices(), Graph::kMaxDenseVertices);
  ASSERT_GT(G.numEdges(), G.numVertices());
  checkChordalKernels(G, WS, "big chordal");

  // A generated function large enough for its SSA interference graph to
  // pass the cap as well.
  Rng R(11);
  ProgramGenOptions Shape;
  Shape.NumVars = 40;
  Shape.MaxBlocks = 600;
  Shape.MaxNesting = 4;
  Shape.MaxRegionsPerSeq = 12;
  Shape.ExprsPerBlockMin = 6;
  Shape.ExprsPerBlockMax = 12;
  Function Ssa = convertToSsa(generateFunction(R, Shape, "big")).Ssa;
  Liveness Live(Ssa);
  Graph Big = buildInterference(Ssa, Live, computeSpillCosts(Ssa, ST231), &WS,
                                /*CollectPointSets=*/false)
                  .G;
  ASSERT_GT(Big.numVertices(), Graph::kMaxDenseVertices);
  checkChordalKernels(Big, WS, "big interference");
}

TEST(KernelEquivalenceTest, PeoCheckRejectsNonPeoOrdersBelowAndAboveCap) {
  SolverWorkspace WS;
  Rng R(99);
  std::vector<Graph> Graphs;
  for (int I = 0; I < 8; ++I) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 40 + static_cast<unsigned>(R.nextBelow(200));
    Opt.TreeSize = 30;
    Graphs.push_back(randomChordalGraph(R, Opt));
  }
  Graphs.push_back(bigChordalGraph(8));
  unsigned Rejected = 0;
  for (const Graph &G : Graphs) {
    EliminationOrder Peo = maximumCardinalitySearch(G, &WS);
    ASSERT_TRUE(isPerfectEliminationOrder(G, Peo, &WS));
    // Reversing a PEO, or moving a vertex with two non-adjacent neighbors
    // to the front, generally breaks it; the verdict must match the
    // definition either way.
    std::vector<VertexId> Reversed(Peo.Order.rbegin(), Peo.Order.rend());
    std::vector<EliminationOrder> Orders;
    Orders.push_back(EliminationOrder::fromOrder(Reversed));
    for (int Swap = 0; Swap < 5; ++Swap) {
      std::vector<VertexId> Order = Peo.Order;
      size_t A = R.nextBelow(Order.size()), B = R.nextBelow(Order.size());
      std::swap(Order[A], Order[B]);
      Orders.push_back(EliminationOrder::fromOrder(std::move(Order)));
    }
    for (const EliminationOrder &O : Orders) {
      bool Got = isPerfectEliminationOrder(G, O, &WS);
      ASSERT_EQ(Got, referenceIsPeo(G, O)) << G.numVertices() << " vertices";
      Rejected += Got ? 0 : 1;
    }
  }
  EXPECT_GT(Rejected, 10u) << "test never exercised the negative case";

  // A chordless 4-cycle hidden past the cap: no order is a PEO.
  Graph C4 = bigChordalGraph(9);
  unsigned N = C4.numVertices();
  std::vector<Graph::Edge> Edges;
  for (VertexId V = 0; V < N; ++V)
    for (VertexId U : C4.neighbors(V))
      if (V < U)
        Edges.emplace_back(V, U);
  std::vector<Weight> Weights(N + 4, 1);
  for (VertexId I = 0; I < 4; ++I)
    Edges.emplace_back(N + I, N + (I + 1) % 4);
  Graph Cycle = Graph::fromEdgeList(std::move(Weights), {}, Edges);
  EliminationOrder McsOrder = maximumCardinalitySearch(Cycle, &WS);
  EXPECT_FALSE(isPerfectEliminationOrder(Cycle, McsOrder, &WS));
  EXPECT_FALSE(isChordal(Cycle));
}

TEST(KernelEquivalenceTest, EdgeListCsrEqualsAddEdgeThenCompress) {
  Rng R(31);
  for (unsigned N : {0u, 1u, 2u, 17u, 300u, Graph::kMaxDenseVertices,
                     Graph::kMaxDenseVertices + 1, Graph::kMaxDenseVertices +
                                                       333}) {
    // Repeats in both orientations, as the interference walk produces.
    std::vector<Graph::Edge> Edges;
    size_t NumDraws = N < 2 ? 0 : 3 * static_cast<size_t>(N) + 50;
    for (size_t I = 0; I < NumDraws; ++I) {
      VertexId U = static_cast<VertexId>(R.nextBelow(N));
      VertexId V = static_cast<VertexId>(R.nextBelow(N));
      if (U == V)
        continue;
      Edges.emplace_back(U, V);
      if (R.nextBelow(4) == 0)
        Edges.emplace_back(V, U);
      if (R.nextBelow(8) == 0 && !Edges.empty())
        Edges.push_back(Edges[R.nextBelow(Edges.size())]);
    }
    std::vector<Weight> Weights(N);
    std::vector<std::string> Names(N);
    Graph Reference;
    for (VertexId V = 0; V < N; ++V) {
      Weights[V] = static_cast<Weight>(R.nextBelow(100));
      Names[V] = V % 3 ? "v" + std::to_string(V) : std::string();
      Reference.addVertex(Weights[V], Names[V]);
    }
    std::vector<Graph::Edge> Distinct;
    for (const Graph::Edge &E : Edges)
      if (Reference.addEdge(E.first, E.second))
        Distinct.push_back(E);
    Reference.compress();

    Graph Got = Graph::fromEdgeList(Weights, Names, Edges);
    EXPECT_TRUE(Got.compressed());
    EXPECT_EQ(Edges, Distinct) << N;
    ASSERT_EQ(Got.numVertices(), N);
    EXPECT_EQ(Got.numEdges(), Reference.numEdges()) << N;
    for (VertexId V = 0; V < N; ++V) {
      ASSERT_EQ(Got.neighbors(V), Reference.neighbors(V)) << N << " " << V;
      EXPECT_EQ(Got.weight(V), Reference.weight(V));
      EXPECT_EQ(Got.name(V), Reference.name(V));
    }
    for (int Probe = 0; N > 1 && Probe < 500; ++Probe) {
      VertexId U = static_cast<VertexId>(R.nextBelow(N));
      VertexId V = static_cast<VertexId>(R.nextBelow(N));
      EXPECT_EQ(Got.hasEdge(U, V), Reference.hasEdge(U, V));
    }
  }
}

TEST(KernelEquivalenceTest, WorkspaceReuseNeverAliasesResults) {
  // The PEO check and clique extraction share the workspace's CSR scratch;
  // results built past the dense cap must not change when the same
  // workspace serves other graphs in between, and must equal fresh runs.
  SolverWorkspace WS;
  Graph Big = bigChordalGraph(12);
  Rng R(5);
  ChordalGenOptions Opt;
  Opt.NumVertices = 60;
  Graph Small = randomChordalGraph(R, Opt);

  EliminationOrder BigPeo = maximumCardinalitySearch(Big, &WS);
  CliqueCover BigCover = maximalCliquesChordal(Big, BigPeo, &WS);
  CliqueCover Snapshot = BigCover;
  EliminationOrder SmallPeo = maximumCardinalitySearch(Small, &WS);
  ASSERT_TRUE(isPerfectEliminationOrder(Small, SmallPeo, &WS));
  CliqueCover SmallCover = maximalCliquesChordal(Small, SmallPeo, &WS);
  ASSERT_TRUE(isPerfectEliminationOrder(Big, BigPeo, &WS));
  CliqueCover BigAgain = maximalCliquesChordal(Big, BigPeo, &WS);

  EXPECT_TRUE(BigCover.Cliques == Snapshot.Cliques);
  EXPECT_TRUE(BigCover.CliquesOf == Snapshot.CliquesOf);
  CliqueCover Fresh = maximalCliquesChordal(Big, maximumCardinalitySearch(Big));
  EXPECT_TRUE(BigAgain.Cliques == Fresh.Cliques);
  EXPECT_TRUE(BigAgain.CliquesOf == Fresh.CliquesOf);
  EXPECT_TRUE(BigCover.Cliques == Fresh.Cliques);
  CliqueCover SmallFresh =
      maximalCliquesChordal(Small, maximumCardinalitySearch(Small));
  EXPECT_TRUE(SmallCover.Cliques == SmallFresh.Cliques);

  // Problem construction: the constraints view the shared cover, and a
  // copy of the problem keeps views that stay valid after the original
  // is gone.
  AllocationProblem Copy;
  {
    AllocationProblem P = AllocationProblem::fromChordalGraph(Big, 8, &WS);
    AllocationProblem Q = AllocationProblem::fromChordalGraph(Big, 8);
    ASSERT_EQ(P.Constraints.size(), Fresh.numCliques());
    EXPECT_TRUE(P.Constraints == Q.Constraints);
    for (unsigned K = 0; K < P.Constraints.size(); ++K)
      ASSERT_EQ(P.Constraints[K].Members.data(),
                P.cliques().Cliques[K].data());
    Copy = P.withBudgets({4});
  }
  for (unsigned K = 0; K < Copy.Constraints.size(); ++K) {
    EXPECT_EQ(Copy.Constraints[K].Members, Fresh.Cliques[K]);
    EXPECT_EQ(Copy.Constraints[K].Budget, 4u);
  }
}
