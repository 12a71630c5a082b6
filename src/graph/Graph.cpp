//===- graph/Graph.cpp - Weighted undirected interference graph ----------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "graph/Graph.h"

#include <algorithm>
#include <unordered_set>

using namespace layra;

VertexId Graph::addVertex(Weight W, std::string Name) {
  assert(W >= 0 && "spill costs are non-negative");
  assert(!Compressed && "addVertex on a compressed graph");
  VertexId Id = numVertices();
  Adjacency.emplace_back();
  Weights.push_back(W);
  if (!Name.empty()) {
    Names.resize(Id + 1);
    Names[Id] = std::move(Name);
  }

  if (MatrixEnabled) {
    unsigned Count = Id + 1;
    if (Count > kMaxDenseVertices) {
      // Past the density cap: drop the matrix for good and fall back to
      // list scans.
      std::vector<uint64_t>().swap(Matrix);
      MatrixStride = 0;
      MatrixEnabled = false;
    } else {
      unsigned NeededWords = (Count + 63) / 64;
      if (NeededWords > MatrixStride) {
        // Re-stride with geometric headroom so incremental addVertex
        // re-lays rows O(log N) times, not O(N).
        unsigned NewStride =
            (std::min(Count * 2, kMaxDenseVertices) + 63) / 64;
        std::vector<uint64_t> NewMatrix(
            static_cast<std::size_t>(Count) * NewStride, 0);
        for (VertexId V = 0; V < Id; ++V)
          std::copy_n(Matrix.begin() +
                          static_cast<std::size_t>(V) * MatrixStride,
                      MatrixStride,
                      NewMatrix.begin() +
                          static_cast<std::size_t>(V) * NewStride);
        Matrix = std::move(NewMatrix);
        MatrixStride = NewStride;
      } else {
        Matrix.resize(static_cast<std::size_t>(Count) * MatrixStride, 0);
      }
    }
  }
  return Id;
}

bool Graph::addEdge(VertexId U, VertexId V) {
  assert(U < numVertices() && V < numVertices() && "vertex out of range");
  assert(U != V && "self-loops are not interference edges");
  assert(!Compressed && "addEdge on a compressed graph");
  if (hasEdge(U, V))
    return false;
  Adjacency[U].push_back(V);
  Adjacency[V].push_back(U);
  if (MatrixStride) {
    setMatrixBit(U, V);
    setMatrixBit(V, U);
  }
  ++EdgeCount;
  return true;
}

bool Graph::hasEdgeScan(VertexId U, VertexId V) const {
  // Scan the smaller neighbor list.
  if (degree(U) > degree(V))
    std::swap(U, V);
  NeighborRange Smaller = neighbors(U);
  return std::find(Smaller.begin(), Smaller.end(), V) != Smaller.end();
}

void Graph::compress() {
  if (Compressed)
    return;
  unsigned N = numVertices();
  assert(2 * EdgeCount <= UINT32_MAX && "edge count overflows CSR offsets");
  CsrOffsets.resize(N + 1);
  CsrNeighbors.resize(2 * EdgeCount);
  uint32_t Offset = 0;
  for (VertexId V = 0; V < N; ++V) {
    CsrOffsets[V] = Offset;
    std::copy(Adjacency[V].begin(), Adjacency[V].end(),
              CsrNeighbors.begin() + Offset);
    Offset += static_cast<uint32_t>(Adjacency[V].size());
  }
  CsrOffsets[N] = Offset;
  // Release the per-vertex list storage; the CSR is the view from now on.
  std::vector<std::vector<VertexId>>().swap(Adjacency);
  Compressed = true;
}

Graph Graph::fromEdgeList(std::vector<Weight> Weights,
                          std::vector<std::string> Names,
                          std::vector<Edge> &Edges) {
  Graph G;
  unsigned N = static_cast<unsigned>(Weights.size());
  assert((Names.empty() || Names.size() == N) && "one name per vertex");
  G.Weights = std::move(Weights);
  G.Names = std::move(Names);
  if (N > kMaxDenseVertices) {
    G.MatrixEnabled = false;
  } else if (N > 0) {
    G.MatrixStride = (N + 63) / 64;
    G.Matrix.assign(static_cast<std::size_t>(N) * G.MatrixStride, 0);
  }

  // Keep the first occurrence of every edge, in list order.
  std::unordered_set<uint64_t> Seen;
  if (!G.MatrixStride)
    Seen.reserve(Edges.size());
  size_t Kept = 0;
  for (const Edge &E : Edges) {
    VertexId U = E.first, V = E.second;
    assert(U < N && V < N && "vertex out of range");
    assert(U != V && "self-loops are not interference edges");
    if (G.MatrixStride) {
      if (G.hasEdge(U, V))
        continue;
      G.setMatrixBit(U, V);
      G.setMatrixBit(V, U);
    } else if (!Seen.insert((uint64_t(std::min(U, V)) << 32) |
                            std::max(U, V))
                    .second) {
      continue;
    }
    Edges[Kept++] = E;
  }
  Edges.resize(Kept);
  G.EdgeCount = Kept;

  // Counting sort into the CSR: CsrOffsets[V + 1] first counts V's
  // neighbors, then the fill advances CsrOffsets[V] from V's start to its
  // end, and the final shift restores the starts.  Walking the edges in
  // list order appends each vertex's neighbors in first-insertion order.
  assert(2 * Kept <= UINT32_MAX && "edge count overflows CSR offsets");
  G.CsrOffsets.assign(N + 1, 0);
  G.CsrNeighbors.resize(2 * Kept);
  for (const Edge &E : Edges) {
    ++G.CsrOffsets[E.first + 1];
    ++G.CsrOffsets[E.second + 1];
  }
  for (VertexId V = 0; V < N; ++V)
    G.CsrOffsets[V + 1] += G.CsrOffsets[V];
  for (const Edge &E : Edges) {
    G.CsrNeighbors[G.CsrOffsets[E.first]++] = E.second;
    G.CsrNeighbors[G.CsrOffsets[E.second]++] = E.first;
  }
  for (VertexId V = N; V > 0; --V)
    G.CsrOffsets[V] = G.CsrOffsets[V - 1];
  G.CsrOffsets[0] = 0;
  G.Compressed = true;
  return G;
}

const std::string &Graph::name(VertexId V) const {
  assert(V < numVertices() && "vertex out of range");
  static const std::string Empty;
  return V < Names.size() ? Names[V] : Empty;
}

void Graph::setName(VertexId V, std::string Name) {
  assert(V < numVertices() && "vertex out of range");
  if (Names.size() <= V)
    Names.resize(V + 1);
  Names[V] = std::move(Name);
}

Weight Graph::totalWeight() const {
  Weight Sum = 0;
  for (Weight W : Weights)
    Sum += W;
  return Sum;
}

Weight Graph::weightOf(const std::vector<VertexId> &Subset) const {
  Weight Sum = 0;
  for (VertexId V : Subset)
    Sum += weight(V);
  return Sum;
}

bool Graph::isStableSet(const std::vector<VertexId> &Subset) const {
  std::vector<char> InSet(numVertices(), 0);
  for (VertexId V : Subset) {
    assert(V < numVertices() && "vertex out of range");
    InSet[V] = 1;
  }
  for (VertexId V : Subset)
    for (VertexId U : neighbors(V))
      if (InSet[U])
        return false;
  return true;
}

Graph Graph::inducedSubgraph(const std::vector<VertexId> &Keep,
                             std::vector<VertexId> *OldToNew) const {
  std::vector<VertexId> Map(numVertices(), ~0u);
  Graph Sub;
  for (VertexId V : Keep) {
    assert(V < numVertices() && "vertex out of range");
    assert(Map[V] == ~0u && "duplicate vertex in induced subgraph request");
    Map[V] = Sub.addVertex(weight(V), name(V));
  }
  for (VertexId V : Keep)
    for (VertexId U : neighbors(V))
      if (Map[U] != ~0u && V < U)
        Sub.addEdge(Map[V], Map[U]);
  if (OldToNew)
    *OldToNew = std::move(Map);
  return Sub;
}

std::string Graph::toDot(const std::vector<VertexId> &Highlight) const {
  std::vector<char> Hot(numVertices(), 0);
  for (VertexId V : Highlight)
    Hot[V] = 1;
  std::string Dot = "graph interference {\n  node [shape=circle];\n";
  for (VertexId V = 0; V < numVertices(); ++V) {
    Dot += "  n" + std::to_string(V) + " [label=\"";
    Dot += name(V).empty() ? ("v" + std::to_string(V)) : name(V);
    Dot += ':';
    Dot += std::to_string(weight(V));
    Dot += '"';
    if (Hot[V])
      Dot += ", style=filled, fillcolor=lightblue";
    Dot += "];\n";
  }
  for (VertexId V = 0; V < numVertices(); ++V)
    for (VertexId U : neighbors(V))
      if (V < U)
        Dot += "  n" + std::to_string(V) + " -- n" + std::to_string(U) + ";\n";
  Dot += "}\n";
  return Dot;
}
