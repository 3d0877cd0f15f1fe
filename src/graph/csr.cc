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

Csr
buildCsr(VertexId num_vertices, const EdgeList& edges,
         const CsrBuildOptions& opts,
         const std::vector<Word>& weights)
{
    panic_if(!weights.empty() && weights.size() != edges.size(),
             "weights size ", weights.size(), " != edge count ",
             edges.size());
    const bool weighted = !weights.empty();
    const bool dedup = opts.dedup || opts.symmetrize;

    Csr graph;
    graph.numVertices = num_vertices;
    std::vector<EdgeId>& row_ptr = graph.rowPtr;
    row_ptr.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
    // col_ptr buckets the slots by destination the way row_ptr does
    // by source.
    std::vector<EdgeId> col_ptr(row_ptr.size(), 0);

    // Count each row's and each column's slots one entry to the
    // right, so the prefix sums leave row u's start in rowPtr[u] and
    // column v's in col_ptr[v].
    std::uint64_t num_slots = 0;
    for (const auto& [u, v] : edges) {
        panic_if(u >= num_vertices || v >= num_vertices,
                 "edge (", u, ",", v, ") outside vertex domain ",
                 num_vertices);
        if (opts.removeSelfLoops && u == v)
            continue;
        ++row_ptr[u + 1];
        ++col_ptr[v + 1];
        ++num_slots;
        if (opts.symmetrize && u != v) {
            ++row_ptr[v + 1];
            ++col_ptr[u + 1];
            ++num_slots;
        }
    }
    panic_if(num_slots > std::numeric_limits<EdgeId>::max(),
             "edge count ", num_slots, " exceeds the 32-bit domain");
    for (VertexId v = 0; v < num_vertices; ++v) {
        row_ptr[v + 1] += row_ptr[v];
        col_ptr[v + 1] += col_ptr[v];
    }

    // Pass 1: bucket every slot's source (and weight) by destination,
    // in input order, using col_ptr[v] as column v's cursor;
    // afterwards col_ptr[v] holds column v's end.
    std::vector<VertexId> src(num_slots);
    std::vector<Word> src_weight(weighted ? num_slots : 0);
    auto place = [&](VertexId u, VertexId v, std::size_t i) {
        const EdgeId at = col_ptr[v]++;
        src[at] = u;
        if (weighted)
            src_weight[at] = weights[i];
    };
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const auto [u, v] = edges[i];
        if (opts.removeSelfLoops && u == v)
            continue;
        place(u, v, i);
        if (opts.symmetrize && u != v)
            place(v, u, i);
    }

    // Pass 2: walk the columns in ascending order and append each
    // slot to its source's row, using rowPtr[u] as row u's cursor.
    // Every row comes out sorted by destination, parallel edges in
    // input order. Afterwards rowPtr[u] holds row u + 1's start, so
    // shift the array back by one.
    graph.colIdx.resize(num_slots);
    graph.weights.resize(src_weight.size());
    EdgeId begin = 0;
    for (VertexId v = 0; v < num_vertices; ++v) {
        const EdgeId end = col_ptr[v];
        for (EdgeId i = begin; i < end; ++i) {
            const EdgeId at = row_ptr[src[i]]++;
            graph.colIdx[at] = v;
            if (weighted)
                graph.weights[at] = src_weight[i];
        }
        begin = end;
    }
    for (VertexId v = num_vertices; v > 0; --v)
        row_ptr[v] = row_ptr[v - 1];
    row_ptr[0] = 0;

    // When deduplicating, keep only the smallest-weight copy of each
    // run of parallel edges, compacting the rows in place and
    // rewriting rowPtr to match; otherwise sort each run by weight.
    if (dedup || weighted) {
        std::vector<VertexId>& col = graph.colIdx;
        const auto w = graph.weights.begin();
        EdgeId kept = 0;
        begin = 0;
        for (VertexId u = 0; u < num_vertices; ++u) {
            const EdgeId end = row_ptr[u + 1];
            if (dedup)
                row_ptr[u] = kept;
            for (EdgeId i = begin; i < end;) {
                EdgeId run_end = i + 1;
                while (run_end < end && col[run_end] == col[i])
                    ++run_end;
                if (weighted && dedup)
                    w[i] = *std::min_element(w + i, w + run_end);
                else if (weighted)
                    std::sort(w + i, w + run_end);
                if (dedup) {
                    col[kept] = col[i];
                    if (weighted)
                        w[kept] = w[i];
                    ++kept;
                }
                i = run_end;
            }
            begin = end;
        }
        if (dedup) {
            row_ptr.back() = kept;
            col.resize(kept);
            if (weighted)
                graph.weights.resize(kept);
        }
    }
    graph.numEdges = row_ptr.back();

    graph.checkInvariants();
    return graph;
}

Csr
symmetrize(const Csr& graph)
{
    EdgeList edges;
    edges.reserve(graph.numEdges);
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
