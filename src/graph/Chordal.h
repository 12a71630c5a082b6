//===- graph/Chordal.h - Chordal graph machinery ----------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Perfect elimination orders, chordality testing, maximal cliques and clique
/// trees -- the structural backbone of the paper.  Interference graphs of SSA
/// programs are chordal (Hack et al.; paper §3.2), maximal cliques correspond
/// exactly to sets of variables simultaneously live at some program point,
/// and a PEO makes the maximum weighted stable set (the optimal one-register
/// allocation layer) computable in linear time.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_GRAPH_CHORDAL_H
#define LAYRA_GRAPH_CHORDAL_H

#include "graph/Graph.h"
#include "support/FlatLists.h"

#include <optional>
#include <vector>

namespace layra {

class SolverWorkspace;

/// A vertex elimination order together with its inverse permutation.
/// Order[i] is the i-th vertex eliminated; Position[v] is v's index in Order.
struct EliminationOrder {
  std::vector<VertexId> Order;
  std::vector<unsigned> Position;

  /// Builds the inverse permutation from \p Order.
  static EliminationOrder fromOrder(std::vector<VertexId> Order);
};

/// Computes an elimination order via Maximum Cardinality Search.
/// For a chordal graph the *reverse* of the MCS visit order is a perfect
/// elimination order; the returned order is already reversed, i.e. it is a
/// PEO whenever \p G is chordal.  Ties go to the vertex that most recently
/// reached the top count (vertex N-1 first at the start).  \p WS
/// optionally supplies the bucket scratch (core/SolverWorkspace.h);
/// results are identical either way.
EliminationOrder maximumCardinalitySearch(const Graph &G,
                                          SolverWorkspace *WS = nullptr);

/// Computes an elimination order via lexicographic BFS (Rose-Tarjan-Lueker).
/// As with MCS, the returned order is a PEO whenever \p G is chordal.
EliminationOrder lexBfs(const Graph &G);

/// Returns true if \p Order is a perfect elimination order of \p G: each
/// vertex's later neighbors form a clique.  Linear-time RTL check: every
/// later neighbor of v other than its parent (earliest later neighbor)
/// must be adjacent to the parent, tested in one sweep over \p Order
/// (Tarjan-Yannakakis) with two vertex-indexed workspace arrays.
bool isPerfectEliminationOrder(const Graph &G, const EliminationOrder &Order,
                               SolverWorkspace *WS = nullptr);

/// Returns true if \p G is chordal (every cycle of length >= 4 has a chord).
bool isChordal(const Graph &G);

/// A set of cliques covering every vertex, stored flat: the maximal
/// cliques of a chordal graph (maximalCliquesChordal), the constraint
/// structure of chordal allocation problems, plus the per-vertex index the
/// fixed-point layered allocator (paper Algorithm 4) and the step-k dynamic
/// program use.  Two member arrays and two offset arrays in all, however
/// many cliques there are.
struct CliqueCover {
  /// Clique K's vertices are Cliques[K] (unordered).
  FlatLists<VertexId> Cliques;
  /// CliquesOf[v] lists the indices of the cliques containing v, in
  /// increasing order.
  FlatLists<unsigned> CliquesOf;

  unsigned numCliques() const { return Cliques.size(); }

  /// Size of the largest clique; equals the chromatic number for chordal
  /// graphs and MaxLive for SSA interference graphs.
  unsigned maxCliqueSize() const;
};

/// Enumerates all maximal cliques of chordal \p G given a PEO, in PEO
/// order of their earliest vertex, and indexes them per vertex.  Runs in
/// O(V + E) time plus output size; \p WS supplies the later-neighbor
/// scratch, and the result never aliases it.
/// \pre \p Peo is a perfect elimination order of \p G.
CliqueCover maximalCliquesChordal(const Graph &G, const EliminationOrder &Peo,
                                  SolverWorkspace *WS = nullptr);

/// A clique tree of a chordal graph: a tree on the maximal cliques such that
/// for every vertex the cliques containing it induce a subtree.  Built as a
/// maximum-weight spanning tree of the clique intersection graph, which is a
/// classical characterisation of clique trees.
struct CliqueTree {
  /// Parent clique index; Root has parent ~0u.  Indices refer to the
  /// CliqueCover this tree was built from.
  std::vector<unsigned> Parent;
  /// Children lists (redundant with Parent, handy for DP traversals).
  std::vector<std::vector<unsigned>> Children;
  /// Topological order: parents before children, Order[0] is the root.
  std::vector<unsigned> TopoOrder;
  /// Separator[i] = intersection of clique i with its parent (empty for the
  /// root and for cliques in other connected components).
  std::vector<std::vector<VertexId>> Separator;
};

/// Builds a clique tree of \p Cover (one root per connected component of the
/// clique intersection graph; forests are represented with multiple roots).
CliqueTree buildCliqueTree(const Graph &G, const CliqueCover &Cover);

/// Verifies the induced-subtree property of \p Tree w.r.t. \p Cover: for
/// every vertex, the cliques containing it form a connected subtree.
/// Used by tests and asserts.
bool isValidCliqueTree(const Graph &G, const CliqueCover &Cover,
                       const CliqueTree &Tree);

} // namespace layra

#endif // LAYRA_GRAPH_CHORDAL_H
