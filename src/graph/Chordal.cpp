//===- graph/Chordal.cpp - Chordal graph machinery ------------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "graph/Chordal.h"

#include "core/SolverWorkspace.h"
#include "obs/Trace.h"
#include "support/Compiler.h"

#include <algorithm>
#include <list>
#include <numeric>
#include <unordered_map>

using namespace layra;

EliminationOrder EliminationOrder::fromOrder(std::vector<VertexId> Order) {
  EliminationOrder Result;
  Result.Position.resize(Order.size(), ~0u);
  for (unsigned I = 0; I < Order.size(); ++I) {
    assert(Order[I] < Order.size() && "order mentions unknown vertex");
    assert(Result.Position[Order[I]] == ~0u && "duplicate vertex in order");
    Result.Position[Order[I]] = I;
  }
  Result.Order = std::move(Order);
  return Result;
}

EliminationOrder layra::maximumCardinalitySearch(const Graph &G,
                                                 SolverWorkspace *WS) {
  PhaseSpan McsSpan(Phase::McsPeo);
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();
  unsigned N = G.numVertices();
  constexpr uint32_t None = ~0u;
  constexpr unsigned Visited = ~0u; // Count of a vertex already visited.
  // Bucketed MCS: bucket c is a stack of vertices with c visited neighbors,
  // kept as a singly-linked list threaded through one flat entry pool
  // (BucketHead[c] is the newest entry).  A vertex gets a fresh entry each
  // time its count rises, so each bucket's newest *live* entry is on top;
  // entries left behind by a rise or a visit are skipped when popped.  We
  // repeatedly visit from the highest bucket with a live entry.  The pool
  // takes one entry per vertex plus one per edge.
  std::vector<uint32_t> &Head = WS->acquire(WS->Chordal.BucketHead, N + 1, None);
  std::vector<SolverWorkspace::McsEntry> &Pool =
      WS->acquireCleared(WS->Chordal.BucketPool);
  Pool.reserve(N + G.numEdges());
  std::vector<unsigned> &Count = WS->acquire(WS->Chordal.Count, N, 0u);
  auto Push = [&](unsigned C, VertexId V) {
    Pool.push_back({V, Head[C]});
    Head[C] = static_cast<uint32_t>(Pool.size() - 1);
  };
  for (VertexId V = 0; V < N; ++V)
    Push(0, V);

  std::vector<VertexId> Visit;
  Visit.reserve(N);
  unsigned Top = 0;
  while (Visit.size() < N) {
    while (Head[Top] == None) {
      assert(Top > 0 && "MCS ran out of vertices before visiting all");
      --Top;
    }
    SolverWorkspace::McsEntry E = Pool[Head[Top]];
    Head[Top] = E.Next;
    if (Count[E.V] != Top)
      continue; // Stale: visited, or superseded at a higher count.
    Count[E.V] = Visited;
    Visit.push_back(E.V);
    for (VertexId U : G.neighbors(E.V)) {
      unsigned C = Count[U];
      if (C == Visited)
        continue;
      Count[U] = ++C;
      Push(C, U);
      Top = std::max(Top, C);
    }
  }

  // The reverse of the MCS visit order is a PEO on chordal graphs.
  std::reverse(Visit.begin(), Visit.end());
  return EliminationOrder::fromOrder(std::move(Visit));
}

EliminationOrder layra::lexBfs(const Graph &G) {
  PhaseSpan LexBfsSpan(Phase::McsPeo);
  unsigned N = G.numVertices();
  // Partition refinement: Slices is an ordered list of vertex groups; the
  // next visited vertex is the front of the first slice, and visiting splits
  // every slice into (neighbors, non-neighbors), neighbors first.
  std::list<std::vector<VertexId>> Slices;
  if (N > 0) {
    std::vector<VertexId> All(N);
    std::iota(All.begin(), All.end(), 0);
    Slices.push_back(std::move(All));
  }

  std::vector<char> IsNeighbor(N, 0);
  std::vector<VertexId> Visit;
  Visit.reserve(N);
  while (!Slices.empty()) {
    std::vector<VertexId> &First = Slices.front();
    VertexId V = First.back();
    First.pop_back();
    if (First.empty())
      Slices.pop_front();
    Visit.push_back(V);

    for (VertexId U : G.neighbors(V))
      IsNeighbor[U] = 1;
    for (auto It = Slices.begin(); It != Slices.end();) {
      std::vector<VertexId> Hit, Miss;
      for (VertexId U : *It)
        (IsNeighbor[U] ? Hit : Miss).push_back(U);
      if (Hit.empty() || Miss.empty()) {
        ++It;
        continue;
      }
      *It = std::move(Miss);
      Slices.insert(It, std::move(Hit));
      ++It;
    }
    for (VertexId U : G.neighbors(V))
      IsNeighbor[U] = 0;
  }

  std::reverse(Visit.begin(), Visit.end());
  return EliminationOrder::fromOrder(std::move(Visit));
}

bool layra::isPerfectEliminationOrder(const Graph &G,
                                      const EliminationOrder &Order,
                                      SolverWorkspace *WS) {
  PhaseSpan PeoSpan(Phase::McsPeo);
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();
  unsigned N = G.numVertices();
  if (Order.Order.size() != N)
    return false;
  const std::vector<unsigned> &Pos = Order.Position;
  // Rose-Tarjan-Lueker condition: for each vertex v, let p be its parent
  // (earliest later neighbor); all other later neighbors of v must be
  // adjacent to p.  Tarjan-Yannakakis check it in one sweep in order: when
  // w is reached, each earlier neighbor v has w as a later neighbor, and
  // Parent[v] is already final unless w is v's parent.  Stamping w's
  // earlier neighbors with w's position turns "Parent[v] == w or
  // Parent[v] is adjacent to w" into one array lookup.
  std::vector<VertexId> &Parent = WS->acquire(WS->Chordal.Parent, N, VertexId(0));
  std::vector<unsigned> &Stamp = WS->acquire(WS->Chordal.Stamp, N, 0u);
  for (unsigned I = 0; I < N; ++I) {
    VertexId W = Order.Order[I];
    Parent[W] = W; // No later neighbor seen yet.
    Stamp[W] = I;
    for (VertexId V : G.neighbors(W))
      if (Pos[V] < I) {
        Stamp[V] = I;
        if (Parent[V] == V)
          Parent[V] = W;
      }
    for (VertexId V : G.neighbors(W))
      if (Pos[V] < I && Stamp[Parent[V]] != I)
        return false;
  }
  return true;
}

bool layra::isChordal(const Graph &G) {
  return isPerfectEliminationOrder(G, maximumCardinalitySearch(G));
}

unsigned CliqueCover::maxCliqueSize() const {
  size_t Max = 0;
  for (ArrayView<VertexId> K : Cliques)
    Max = std::max(Max, K.size());
  return static_cast<unsigned>(Max);
}

/// The CliquesOf index of \p Cliques over \p NumVertices vertices: one
/// counting sort, which lists each vertex's cliques in increasing order.
static FlatLists<unsigned> indexVertices(const FlatLists<VertexId> &Cliques,
                                         unsigned NumVertices) {
  std::vector<uint32_t> Start(NumVertices + 1, 0);
  for (ArrayView<VertexId> K : Cliques)
    for (VertexId V : K)
      ++Start[V + 1];
  for (VertexId V = 0; V < NumVertices; ++V)
    Start[V + 1] += Start[V];
  std::vector<unsigned> Index(Start[NumVertices]);
  std::vector<uint32_t> Fill(Start.begin(), Start.end() - 1);
  for (unsigned K = 0; K < Cliques.size(); ++K)
    for (VertexId V : Cliques[K])
      Index[Fill[V]++] = K;
  return FlatLists<unsigned>::fromParts(std::move(Start), std::move(Index));
}

CliqueCover layra::maximalCliquesChordal(const Graph &G,
                                         const EliminationOrder &Peo,
                                         SolverWorkspace *WS) {
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();
  assert(isPerfectEliminationOrder(G, Peo) &&
         "maximalCliquesChordal requires a PEO (is the graph chordal?)");
  unsigned N = G.numVertices();
  constexpr VertexId None = ~0u;
  const std::vector<unsigned> &Pos = Peo.Position;
  // Fulkerson-Gross: every maximal clique is C_v = {v} + laterNeighbors(v)
  // for some v.  C_v is NON-maximal iff some u with parent(u) == v satisfies
  // |later(u)| == |later(v)| + 1 (then C_v is a subset of C_u); this is the
  // Blair-Peyton detection used in clique-tree construction.  One sweep
  // gathers every vertex's later neighbors (in adjacency order) into the
  // Items/Start CSR and finds its parent; the cliques are copied from it.
  std::vector<VertexId> &Parent = WS->acquire(WS->Chordal.Parent, N, None);
  std::vector<uint32_t> &Start = WS->acquire(WS->Chordal.CsrStart, N + 1, 0u);
  std::vector<VertexId> &Items = WS->acquireCleared(WS->Chordal.CsrItems);
  for (VertexId V = 0; V < N; ++V) {
    for (VertexId U : G.neighbors(V))
      if (Pos[U] > Pos[V]) {
        Items.push_back(U);
        if (Parent[V] == None || Pos[U] < Pos[Parent[V]])
          Parent[V] = U;
      }
    Start[V + 1] = static_cast<uint32_t>(Items.size());
  }
  auto LaterCount = [&](VertexId V) { return Start[V + 1] - Start[V]; };

  std::vector<char> &Absorbed = WS->acquire(WS->Chordal.Flags, N, char(0));
  for (VertexId U = 0; U < N; ++U)
    if (Parent[U] != None && LaterCount(U) == LaterCount(Parent[U]) + 1)
      Absorbed[Parent[U]] = 1;

  // Exact-size output: count first, then fill.
  size_t NumCliques = 0, NumMembers = 0;
  for (VertexId V = 0; V < N; ++V)
    if (!Absorbed[V]) {
      ++NumCliques;
      NumMembers += LaterCount(V) + 1;
    }
  assert(NumMembers <= UINT32_MAX && "clique members overflow offsets");
  std::vector<uint32_t> Offsets;
  Offsets.reserve(NumCliques + 1);
  Offsets.push_back(0);
  std::vector<VertexId> Members;
  Members.reserve(NumMembers);
  for (VertexId V : Peo.Order) {
    if (Absorbed[V])
      continue;
    Members.insert(Members.end(), Items.begin() + Start[V],
                   Items.begin() + Start[V + 1]);
    Members.push_back(V);
    Offsets.push_back(static_cast<uint32_t>(Members.size()));
  }
  CliqueCover Cover;
  Cover.Cliques =
      FlatLists<VertexId>::fromParts(std::move(Offsets), std::move(Members));
  Cover.CliquesOf = indexVertices(Cover.Cliques, N);
  return Cover;
}

namespace {
/// Disjoint-set union for the Kruskal run in buildCliqueTree.
class UnionFind {
public:
  explicit UnionFind(unsigned N) : Parent(N) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }

  unsigned find(unsigned X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  bool unite(unsigned A, unsigned B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return false;
    Parent[B] = A;
    return true;
  }

private:
  std::vector<unsigned> Parent;
};
} // namespace

CliqueTree layra::buildCliqueTree(const Graph &G, const CliqueCover &Cover) {
  PhaseSpan TreeSpan(Phase::CliqueTreeDp);
  unsigned K = Cover.numCliques();
  CliqueTree Tree;
  Tree.Parent.assign(K, ~0u);
  Tree.Children.resize(K);
  Tree.Separator.resize(K);

  // Weight of the clique-intersection edge (i, j) = |K_i intersect K_j|.
  // Only pairs sharing a vertex matter; enumerate them via CliquesOf.
  std::unordered_map<uint64_t, unsigned> Shared;
  for (VertexId V = 0; V < G.numVertices(); ++V) {
    ArrayView<unsigned> In = Cover.CliquesOf[V];
    for (size_t A = 0; A < In.size(); ++A)
      for (size_t B = A + 1; B < In.size(); ++B) {
        unsigned I = std::min(In[A], In[B]), J = std::max(In[A], In[B]);
        ++Shared[(static_cast<uint64_t>(I) << 32) | J];
      }
  }

  struct CandidateEdge {
    unsigned Weight, I, J;
  };
  std::vector<CandidateEdge> Edges;
  Edges.reserve(Shared.size());
  for (const auto &[Key, W] : Shared)
    Edges.push_back({W, static_cast<unsigned>(Key >> 32),
                     static_cast<unsigned>(Key & 0xffffffffu)});
  // Sort by descending weight, tie-broken by indices for determinism.
  std::sort(Edges.begin(), Edges.end(),
            [](const CandidateEdge &A, const CandidateEdge &B) {
              if (A.Weight != B.Weight)
                return A.Weight > B.Weight;
              if (A.I != B.I)
                return A.I < B.I;
              return A.J < B.J;
            });

  UnionFind Dsu(K);
  std::vector<std::vector<unsigned>> TreeAdj(K);
  for (const CandidateEdge &E : Edges)
    if (Dsu.unite(E.I, E.J)) {
      TreeAdj[E.I].push_back(E.J);
      TreeAdj[E.J].push_back(E.I);
    }

  // Root every component at its smallest clique index and orient.
  std::vector<char> Seen(K, 0);
  for (unsigned Root = 0; Root < K; ++Root) {
    if (Seen[Root])
      continue;
    std::vector<unsigned> Stack{Root};
    Seen[Root] = 1;
    while (!Stack.empty()) {
      unsigned C = Stack.back();
      Stack.pop_back();
      Tree.TopoOrder.push_back(C);
      for (unsigned D : TreeAdj[C]) {
        if (Seen[D])
          continue;
        Seen[D] = 1;
        Tree.Parent[D] = C;
        Tree.Children[C].push_back(D);
        Stack.push_back(D);
      }
    }
  }

  // Separators: child clique intersected with its parent clique.
  std::vector<char> Mark(G.numVertices(), 0);
  for (unsigned C = 0; C < K; ++C) {
    unsigned P = Tree.Parent[C];
    if (P == ~0u)
      continue;
    for (VertexId V : Cover.Cliques[P])
      Mark[V] = 1;
    for (VertexId V : Cover.Cliques[C])
      if (Mark[V])
        Tree.Separator[C].push_back(V);
    for (VertexId V : Cover.Cliques[P])
      Mark[V] = 0;
  }
  return Tree;
}

bool layra::isValidCliqueTree(const Graph &G, const CliqueCover &Cover,
                              const CliqueTree &Tree) {
  unsigned K = Cover.numCliques();
  if (Tree.Parent.size() != K || Tree.Separator.size() != K)
    return false;
  // Induced-subtree property: for each vertex v the number of tree edges
  // with both endpoints containing v must be |CliquesOf(v)| - 1.
  std::vector<unsigned> EdgesContaining(G.numVertices(), 0);
  for (unsigned C = 0; C < K; ++C)
    for (VertexId V : Tree.Separator[C])
      ++EdgesContaining[V];
  for (VertexId V = 0; V < G.numVertices(); ++V) {
    if (Cover.CliquesOf[V].empty())
      return false; // Every vertex lies in at least one maximal clique.
    if (EdgesContaining[V] != Cover.CliquesOf[V].size() - 1)
      return false;
  }
  return true;
}
