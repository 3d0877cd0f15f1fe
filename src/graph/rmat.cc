#include "graph/rmat.hh"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace dalorex
{

EdgeList
rmatEdges(const RmatParams& params)
{
    const double d = 1.0 - params.a - params.b - params.c;
    fatal_if(d < 0.0, "RMAT quadrant probabilities exceed 1");
    fatal_if(params.scale == 0 || params.scale > 31,
             "RMAT scale must be in [1, 31]");

    const auto num_vertices = VertexId(1) << params.scale;
    const std::uint64_t num_edges =
        std::uint64_t(params.edgeFactor) * num_vertices;
    fatal_if(num_edges >= (std::uint64_t(1) << 32),
             "edge count exceeds the 32-bit machine limit");

    Rng rng(params.seed);
    EdgeList edges;
    edges.reserve(num_edges);

    // Rng::uniform() is the 53-bit draw x scaled by 2^-53, and
    // x * 2^-53 < p exactly when x < ceil(p * 2^53); so comparing the
    // raw draw against these integer thresholds picks the same
    // quadrants from the same stream.
    auto threshold = [](double p) -> std::uint64_t {
        return p > 0.0 ? static_cast<std::uint64_t>(
                             std::ceil(std::min(p, 1.0) * 0x1.0p53))
                       : 0;
    };
    const std::uint64_t t_a = threshold(params.a);
    const std::uint64_t t_ab = threshold(params.a + params.b);
    const std::uint64_t t_abc =
        threshold(params.a + params.b + params.c);

    for (std::uint64_t e = 0; e < num_edges; ++e) {
        VertexId u = 0;
        VertexId v = 0;
        for (unsigned bit = 0; bit < params.scale; ++bit) {
            const std::uint64_t x = rng.next64() >> 11;
            // Quadrants a = (0,0), b = (0,1), c = (1,0), d = (1,1) in
            // (row, col) bit order, picked without branches.
            const VertexId row_bit = x >= t_ab;
            const VertexId col_bit =
                (x >= t_a) & ((x < t_ab) | (x >= t_abc));
            u = (u << 1) | row_bit;
            v = (v << 1) | col_bit;
        }
        edges.emplace_back(u, v);
    }

    if (params.shuffleIds) {
        // Graph500-style random relabeling (Fisher-Yates), seeded
        // independently of the edge draw.
        std::vector<VertexId> perm(num_vertices);
        for (VertexId v = 0; v < num_vertices; ++v)
            perm[v] = v;
        Rng perm_rng(params.seed ^ 0x5eedf00dULL);
        for (VertexId v = num_vertices - 1; v > 0; --v) {
            const auto swap_with =
                static_cast<VertexId>(perm_rng.below(v + 1));
            std::swap(perm[v], perm[swap_with]);
        }
        for (auto& [u, v] : edges) {
            u = perm[u];
            v = perm[v];
        }
    }
    return edges;
}

Csr
rmatGraph(const RmatParams& params)
{
    CsrBuildOptions opts;
    opts.removeSelfLoops = params.removeSelfLoops;
    opts.dedup = params.dedup;
    return buildCsr(VertexId(1) << params.scale, rmatEdges(params), opts);
}

} // namespace dalorex
