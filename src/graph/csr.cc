#include "graph/csr.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace dalorex
{

void
Csr::checkInvariants() const
{
    panic_if(rowPtr.size() != static_cast<std::size_t>(numVertices) + 1,
             "rowPtr size ", rowPtr.size(), " != V+1 = ",
             numVertices + 1);
    panic_if(colIdx.size() != numEdges, "colIdx size mismatch");
    panic_if(!weights.empty() && weights.size() != numEdges,
             "weights size mismatch");
    panic_if(rowPtr.front() != 0, "rowPtr[0] must be 0");
    panic_if(rowPtr.back() != numEdges, "rowPtr[V] must equal E");
    for (VertexId v = 0; v < numVertices; ++v)
        panic_if(rowPtr[v] > rowPtr[v + 1], "rowPtr not monotone at ", v);
    for (VertexId dst : colIdx)
        panic_if(dst >= numVertices, "colIdx out of range: ", dst);
}

namespace
{

/** A weighted slot sorts as one (destination, weight) integer, so the
 *  first of a run of parallel edges carries the smallest weight. */
std::uint64_t
packSlot(VertexId dst, Word w)
{
    return (std::uint64_t(dst) << 32) | w;
}

VertexId slotDst(VertexId slot) { return slot; }

VertexId
slotDst(std::uint64_t slot)
{
    return static_cast<VertexId>(slot >> 32);
}

/**
 * Sort every row of `slots` (row starts in rowPtr) and, when `dedup`,
 * keep only the first slot of each run with one destination,
 * compacting the rows in place and rewriting rowPtr to match.
 * Returns the number of slots kept.
 */
template <typename Slot>
EdgeId
sortRows(std::vector<EdgeId>& row_ptr, std::vector<Slot>& slots,
         bool dedup)
{
    EdgeId kept = 0;
    EdgeId begin = 0;
    for (std::size_t v = 0; v + 1 < row_ptr.size(); ++v) {
        const EdgeId end = row_ptr[v + 1];
        std::sort(slots.begin() + begin, slots.begin() + end);
        if (dedup) {
            row_ptr[v] = kept;
            for (EdgeId i = begin; i < end; ++i) {
                if (kept > row_ptr[v] &&
                    slotDst(slots[kept - 1]) == slotDst(slots[i]))
                    continue;
                slots[kept++] = slots[i];
            }
        }
        begin = end;
    }
    if (dedup)
        row_ptr.back() = kept;
    return row_ptr.back();
}

} // namespace

Csr
buildCsr(VertexId num_vertices, const EdgeList& edges,
         const CsrBuildOptions& opts,
         const std::vector<Word>& weights)
{
    panic_if(!weights.empty() && weights.size() != edges.size(),
             "weights size ", weights.size(), " != edge count ",
             edges.size());

    Csr graph;
    graph.numVertices = num_vertices;
    std::vector<EdgeId>& row_ptr = graph.rowPtr;
    row_ptr.assign(static_cast<std::size_t>(num_vertices) + 1, 0);

    // Count each row's slots one entry to the right, so the prefix sum
    // leaves row u's start in rowPtr[u].
    std::uint64_t num_slots = 0;
    for (const auto& [u, v] : edges) {
        panic_if(u >= num_vertices || v >= num_vertices,
                 "edge (", u, ",", v, ") outside vertex domain ",
                 num_vertices);
        if (opts.removeSelfLoops && u == v)
            continue;
        ++row_ptr[u + 1];
        ++num_slots;
        if (opts.symmetrize && u != v) {
            ++row_ptr[v + 1];
            ++num_slots;
        }
    }
    panic_if(num_slots > std::numeric_limits<EdgeId>::max(),
             "edge count ", num_slots, " exceeds the 32-bit domain");
    for (VertexId v = 0; v < num_vertices; ++v)
        row_ptr[v + 1] += row_ptr[v];

    // Scatter every slot into its row, using rowPtr[u] as row u's
    // cursor; afterwards rowPtr[u] holds row u + 1's start, so shift
    // the array back by one.
    auto scatter = [&](auto& slots, auto slot_of) {
        slots.resize(num_slots);
        for (std::size_t i = 0; i < edges.size(); ++i) {
            const auto [u, v] = edges[i];
            if (opts.removeSelfLoops && u == v)
                continue;
            slots[row_ptr[u]++] = slot_of(i, v);
            if (opts.symmetrize && u != v)
                slots[row_ptr[v]++] = slot_of(i, u);
        }
        for (VertexId v = num_vertices; v > 0; --v)
            row_ptr[v] = row_ptr[v - 1];
        row_ptr[0] = 0;
    };
    const bool dedup = opts.dedup || opts.symmetrize;

    if (weights.empty()) {
        scatter(graph.colIdx, [](std::size_t, VertexId dst) {
            return dst;
        });
        graph.numEdges = sortRows(row_ptr, graph.colIdx, dedup);
        graph.colIdx.resize(graph.numEdges);
    } else {
        std::vector<std::uint64_t> slots;
        scatter(slots, [&](std::size_t i, VertexId dst) {
            return packSlot(dst, weights[i]);
        });
        graph.numEdges = sortRows(row_ptr, slots, dedup);
        graph.colIdx.resize(graph.numEdges);
        graph.weights.resize(graph.numEdges);
        for (EdgeId i = 0; i < graph.numEdges; ++i) {
            graph.colIdx[i] = slotDst(slots[i]);
            graph.weights[i] = static_cast<Word>(slots[i]);
        }
    }

    graph.checkInvariants();
    return graph;
}

Csr
symmetrize(const Csr& graph)
{
    EdgeList edges;
    edges.reserve(static_cast<std::size_t>(graph.numEdges) * 2);
    for (VertexId u = 0; u < graph.numVertices; ++u) {
        for (EdgeId i = graph.rowPtr[u]; i < graph.rowPtr[u + 1]; ++i)
            edges.emplace_back(u, graph.colIdx[i]);
    }
    CsrBuildOptions opts;
    opts.symmetrize = true;
    return buildCsr(graph.numVertices, edges, opts);
}

void
addRandomWeights(Csr& graph, Rng& rng, Word min_w, Word max_w)
{
    panic_if(min_w == 0, "zero edge weights break SSSP termination");
    panic_if(min_w > max_w, "empty weight range");
    graph.weights.resize(graph.numEdges);
    for (auto& w : graph.weights)
        w = static_cast<Word>(rng.range(min_w, max_w));
}

Csr
crawlOrder(const Csr& graph)
{
    const Csr undirected = symmetrize(graph);
    VertexId start = 0;
    for (VertexId v = 1; v < undirected.numVertices; ++v) {
        if (undirected.degree(v) > undirected.degree(start))
            start = v;
    }

    std::vector<VertexId> perm(graph.numVertices, invalidTile);
    std::vector<VertexId> queue;
    queue.reserve(graph.numVertices);
    VertexId next_id = 0;
    queue.push_back(start);
    perm[start] = next_id++;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const VertexId u = queue[head];
        for (EdgeId i = undirected.rowPtr[u];
             i < undirected.rowPtr[u + 1]; ++i) {
            const VertexId v = undirected.colIdx[i];
            if (perm[v] == invalidTile) {
                perm[v] = next_id++;
                queue.push_back(v);
            }
        }
    }
    // Unreached vertices keep their relative order at the tail.
    for (VertexId v = 0; v < graph.numVertices; ++v) {
        if (perm[v] == invalidTile)
            perm[v] = next_id++;
    }
    return permuteVertices(graph, perm);
}

Csr
permuteVertices(const Csr& graph, const std::vector<VertexId>& perm)
{
    panic_if(perm.size() != graph.numVertices,
             "permutation size mismatch");
    EdgeList edges;
    edges.reserve(graph.numEdges);
    for (VertexId u = 0; u < graph.numVertices; ++u) {
        for (EdgeId i = graph.rowPtr[u]; i < graph.rowPtr[u + 1]; ++i)
            edges.emplace_back(perm[u], perm[graph.colIdx[i]]);
    }

    CsrBuildOptions opts;
    opts.removeSelfLoops = false; // preserve the input edge set exactly
    opts.dedup = false;
    // Weights run parallel to colIdx, hence to `edges`.
    return buildCsr(graph.numVertices, edges, opts, graph.weights);
}

} // namespace dalorex
