//===- graph/Graph.h - Weighted undirected interference graph ---*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The weighted undirected graph all Layra allocators operate on.  Vertices
/// are dense ids 0..N-1; each vertex carries a non-negative integer weight,
/// interpreted as its estimated spill cost (paper §3: "A spill cost
/// represents the access frequency of a variable").
///
/// Storage is layered for the solver hot paths:
///  - Mutable phase (addVertex / addEdge): per-vertex adjacency lists in
///    *insertion order* (the order is load-bearing -- MCS bucket
///    tie-breaking and with it every PEO, clique cover and DP result
///    depends on it), plus a dense bit matrix making hasEdge()/addEdge()
///    duplicate detection O(1) for graphs up to kMaxDenseVertices.  Used by
///    generators, tests and induced subgraphs.
///  - Frozen phase: a CSR view (offsets + one packed neighbor array) so
///    every neighbor walk in MCS, Frank's algorithm and the clique-tree DP
///    streams one contiguous array.  compress() flattens the mutable lists
///    into it; fromEdgeList() builds it straight from an ordered edge list
///    (the interference builder's path), without per-vertex lists.  Both
///    give each vertex its neighbors in first-insertion order, so results
///    are bit-identical whichever way a graph was built.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_GRAPH_GRAPH_H
#define LAYRA_GRAPH_GRAPH_H

#include "support/FlatLists.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace layra {

/// Dense vertex identifier.
using VertexId = unsigned;

/// Spill-cost weight.  Integer so that optimal/heuristic comparisons are
/// exact; the IR cost model produces integers (accesses x block frequency).
using Weight = long long;

/// A non-owning view of one vertex's neighbor list, valid over both the
/// mutable adjacency-list storage and the compressed CSR storage.  Iterates
/// in edge-insertion order in both cases.  Invalidated by addVertex /
/// addEdge / compress on the owning graph.
using NeighborRange = ArrayView<VertexId>;

/// An undirected graph with per-vertex weights and optional vertex names.
///
/// Edges are deduplicated on insertion; self-loops are rejected.  Adjacency
/// is kept in insertion order -- algorithms that need determinism across
/// runs get it because the whole library is deterministic (no pointer
/// ordering anywhere).
class Graph {
public:
  /// Largest vertex count for which the dense adjacency bit matrix is
  /// maintained.  One row is numVertices() bits, so the matrix costs
  /// ~N^2/8 bytes (2 MiB at the cap); beyond it hasEdge falls back to the
  /// list scan.  Suite-derived interference graphs sit far below the cap.
  static constexpr unsigned kMaxDenseVertices = 4096;

  Graph() = default;

  /// Creates a graph with \p NumVertices vertices of weight 0.
  explicit Graph(unsigned NumVertices)
      : Adjacency(NumVertices), Weights(NumVertices, 0) {
    if (NumVertices > kMaxDenseVertices)
      MatrixEnabled = false;
    else if (NumVertices > 0) {
      MatrixStride = (NumVertices + 63) / 64;
      Matrix.assign(static_cast<std::size_t>(NumVertices) * MatrixStride, 0);
    }
  }

  /// Adds a vertex with weight \p W and returns its id.
  /// \pre the graph is not compressed.
  VertexId addVertex(Weight W = 0, std::string Name = {});

  /// Adds the undirected edge {U, V} unless it already exists.
  /// \returns true if the edge was inserted, false if it was present.
  /// \pre U != V, both are valid vertex ids, and the graph is not
  /// compressed.
  bool addEdge(VertexId U, VertexId V);

  /// Returns true if the undirected edge {U, V} exists.  O(1) while the
  /// dense bit matrix is live (numVertices() <= kMaxDenseVertices);
  /// otherwise a scan of the smaller neighbor list.
  bool hasEdge(VertexId U, VertexId V) const {
    assert(U < numVertices() && V < numVertices() && "vertex out of range");
    if (MatrixStride)
      return (Matrix[static_cast<std::size_t>(U) * MatrixStride +
                     (V >> 6)] >>
              (V & 63)) &
             1;
    return hasEdgeScan(U, V);
  }

  unsigned numVertices() const {
    return static_cast<unsigned>(Weights.size());
  }
  size_t numEdges() const { return EdgeCount; }

  /// Freezes the edge set and flattens adjacency into a CSR (offsets +
  /// packed neighbor array) so neighbor walks stream contiguous memory.
  /// Iteration order -- and with it every downstream result -- is
  /// unchanged.  Idempotent; addVertex/addEdge are no longer allowed.
  /// Called at problem-construction freeze points
  /// (AllocationProblem::fromChordalGraph / fromGeneralGraph).
  void compress();

  /// One undirected edge {first, second} of an edge list.
  using Edge = std::pair<VertexId, VertexId>;

  /// Builds a frozen (compressed) graph with vertex weights \p Weights,
  /// optional names \p Names (empty, or one per vertex) and the edges of
  /// \p Edges in list order.  Repeats of an edge, in either orientation,
  /// after its first occurrence are dropped, detected with the dense bit
  /// matrix up to kMaxDenseVertices and a hash set beyond it.  The result
  /// equals the graph that addVertex per weight, addEdge per list entry
  /// and compress() build, without the per-vertex lists.  \p Edges is
  /// scratch: it is left holding the distinct edges.
  /// \pre no self-loops; every endpoint is below Weights.size().
  static Graph fromEdgeList(std::vector<Weight> Weights,
                            std::vector<std::string> Names,
                            std::vector<Edge> &Edges);

  /// True once compress() ran.
  bool compressed() const { return Compressed; }

  NeighborRange neighbors(VertexId V) const {
    assert(V < numVertices() && "vertex out of range");
    if (Compressed) {
      const VertexId *Base = CsrNeighbors.data();
      return {Base + CsrOffsets[V], Base + CsrOffsets[V + 1]};
    }
    const std::vector<VertexId> &List = Adjacency[V];
    return {List.data(), List.data() + List.size()};
  }

  unsigned degree(VertexId V) const {
    assert(V < numVertices() && "vertex out of range");
    if (Compressed)
      return CsrOffsets[V + 1] - CsrOffsets[V];
    return static_cast<unsigned>(Adjacency[V].size());
  }

  Weight weight(VertexId V) const {
    assert(V < numVertices() && "vertex out of range");
    return Weights[V];
  }

  void setWeight(VertexId V, Weight W) {
    assert(V < numVertices() && "vertex out of range");
    assert(W >= 0 && "spill costs are non-negative");
    Weights[V] = W;
  }

  /// Optional human-readable name; empty when never set.
  const std::string &name(VertexId V) const;
  void setName(VertexId V, std::string Name);

  /// Sum of all vertex weights (the cost of spilling everything).
  Weight totalWeight() const;

  /// Sum of weights over \p Subset.
  Weight weightOf(const std::vector<VertexId> &Subset) const;

  /// Returns true if \p Subset contains no two adjacent vertices.
  bool isStableSet(const std::vector<VertexId> &Subset) const;

  /// Builds the subgraph induced by \p Keep (weights and names carried over).
  /// The result is mutable (not compressed), whatever the source's state.
  /// \param [out] OldToNew if non-null, receives a map of size numVertices()
  ///   with the new id of each kept vertex and ~0u for dropped ones.
  Graph inducedSubgraph(const std::vector<VertexId> &Keep,
                        std::vector<VertexId> *OldToNew = nullptr) const;

  /// Renders the graph in Graphviz DOT syntax (used by the examples).
  /// Vertices in \p Highlight are drawn filled.
  std::string toDot(const std::vector<VertexId> &Highlight = {}) const;

private:
  bool hasEdgeScan(VertexId U, VertexId V) const;
  void setMatrixBit(VertexId U, VertexId V) {
    Matrix[static_cast<std::size_t>(U) * MatrixStride + (V >> 6)] |=
        uint64_t(1) << (V & 63);
  }

  /// Insertion-order adjacency lists; emptied (storage released) by
  /// compress(), never filled by fromEdgeList().
  std::vector<std::vector<VertexId>> Adjacency;
  std::vector<Weight> Weights;
  std::vector<std::string> Names;
  size_t EdgeCount = 0;

  /// Dense adjacency bit matrix, row-major with MatrixStride 64-bit words
  /// per row.  Membership only -- iteration always uses the ordered lists /
  /// CSR.  Dropped permanently once numVertices() exceeds
  /// kMaxDenseVertices.
  std::vector<uint64_t> Matrix;
  unsigned MatrixStride = 0;
  bool MatrixEnabled = true;

  /// CSR view, valid once Compressed: CsrOffsets has numVertices()+1
  /// entries; vertex V's neighbors are CsrNeighbors[CsrOffsets[V] ..
  /// CsrOffsets[V+1]).
  std::vector<uint32_t> CsrOffsets;
  std::vector<VertexId> CsrNeighbors;
  bool Compressed = false;
};

} // namespace layra

#endif // LAYRA_GRAPH_GRAPH_H
