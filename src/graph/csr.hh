/**
 * @file
 * Compressed-Sparse-Row graph storage and construction.
 *
 * The paper stores graphs/sparse matrices "in formats like
 * Compressed-Sparse-Row (CSR) using four arrays" (Sec. II-A): the vertex
 * tuple (dist, ptr) and the edge tuple (edge_idx, edge_values). This
 * module provides the two static arrays (ptr == rowPtr, edge_idx ==
 * colIdx) plus optional per-edge weights; per-algorithm state arrays
 * (dist, rank, ...) belong to the apps.
 *
 * For SPMV the same structure is interpreted column-major: rowPtr indexes
 * matrix columns and colIdx holds row indices, so the push-style task
 * program and the reference implementation agree on y = A*x.
 */

#ifndef DALOREX_GRAPH_CSR_HH
#define DALOREX_GRAPH_CSR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace dalorex
{

/** An immutable CSR graph (optionally weighted). */
struct Csr
{
    VertexId numVertices = 0;
    EdgeId numEdges = 0;

    /** rowPtr[v]..rowPtr[v+1] bound v's slice of colIdx (size V+1). */
    std::vector<EdgeId> rowPtr;
    /** Neighbor ids, grouped by source vertex (size E). */
    std::vector<VertexId> colIdx;
    /** Optional per-edge weights, parallel to colIdx (size E or 0). */
    std::vector<Word> weights;

    bool weighted() const { return !weights.empty(); }

    /** Out-degree of vertex v. */
    EdgeId
    degree(VertexId v) const
    {
        return rowPtr[v + 1] - rowPtr[v];
    }

    /** Verify structural invariants; panic() on violation. */
    void checkInvariants() const;
};

/** One directed edge (source, destination). */
using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

/** Options controlling CSR construction from an edge list. */
struct CsrBuildOptions
{
    /** Drop (u, u) self loops. */
    bool removeSelfLoops = true;
    /** Drop duplicate (u, v) pairs. */
    bool dedup = true;
    /** Add the reverse of every edge (undirected view, e.g., for WCC). */
    bool symmetrize = false;
};

/**
 * Build a CSR from an unordered edge list with two stable counting
 * passes: bucket every slot (an edge, plus its reverse when
 * symmetrizing) by destination, then walk the destinations in
 * ascending order and append each slot to its source's row. Every row
 * comes out sorted by destination, parallel edges in input order; one
 * linear pass then sorts each run of parallel edges by weight and,
 * when deduplicating, keeps only the run's first (smallest-weight)
 * copy. Beyond the result it allocates one (V+1) column-offset array
 * and, per slot, a 4-byte source (plus a weight when weighted).
 *
 * @param num_vertices Vertex-id domain [0, num_vertices).
 * @param edges        Directed edge list; ids must be < num_vertices.
 * @param opts         Cleanup/symmetrization options; symmetrizing
 *                     always deduplicates.
 * @param weights      Optional per-edge weights parallel to `edges`
 *                     (a reverse edge carries its original's weight);
 *                     empty builds an unweighted graph.
 */
Csr buildCsr(VertexId num_vertices, const EdgeList& edges,
             const CsrBuildOptions& opts = {},
             const std::vector<Word>& weights = {});

/** Return a symmetrized (undirected-view, deduped) copy of a graph. */
Csr symmetrize(const Csr& graph);

/**
 * Attach uniform random integer weights in [min_w, max_w] to each edge
 * (SSSP inputs; Listing 1's edge_values).
 */
void addRandomWeights(Csr& graph, Rng& rng, Word min_w = 1,
                      Word max_w = 64);

/**
 * Relabel vertices so that consecutive original ids land on different
 * tiles under a block distribution — the paper's countermeasure for
 * degree-sorted inputs ("Should the graph be sorted by vertex degree, we
 * build the global CSR so that consecutive vertices fall into different
 * tiles", Sec. III-F). new_id = perm[old_id].
 */
Csr permuteVertices(const Csr& graph, const std::vector<VertexId>& perm);

/**
 * Relabel a graph into crawl order: ids follow a BFS over the
 * undirected view starting from the highest-degree vertex. This is the
 * id structure of real SNAP crawls — hubs early, neighbors at nearby
 * ids — which is exactly what makes blocked (high-order) placement
 * load-imbalanced and the low-order placement effective.
 */
Csr crawlOrder(const Csr& graph);

} // namespace dalorex

#endif // DALOREX_GRAPH_CSR_HH
