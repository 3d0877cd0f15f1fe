/**
 * @file
 * Unit tests for the graph substrate: CSR construction, symmetrize,
 * weights, vertex permutation, RMAT generation and the dataset
 * registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "graph/csr.hh"
#include "graph/datasets.hh"
#include "graph/graphio.hh"
#include "graph/rmat.hh"

namespace dalorex
{
namespace
{

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setLogQuiet(true); }
};
const auto* const quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

TEST(Csr, BuildSortsAndIndexes)
{
    const EdgeList edges = {{2, 0}, {0, 1}, {0, 2}, {1, 2}};
    const Csr g = buildCsr(3, edges);
    EXPECT_EQ(g.numVertices, 3u);
    EXPECT_EQ(g.numEdges, 4u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(g.degree(2), 1u);
    // Neighbors of 0 are sorted.
    EXPECT_EQ(g.colIdx[g.rowPtr[0]], 1u);
    EXPECT_EQ(g.colIdx[g.rowPtr[0] + 1], 2u);
}

TEST(Csr, RemovesSelfLoopsByDefault)
{
    const EdgeList edges = {{0, 0}, {0, 1}, {1, 1}};
    const Csr g = buildCsr(2, edges);
    EXPECT_EQ(g.numEdges, 1u);
}

TEST(Csr, KeepsSelfLoopsWhenAsked)
{
    CsrBuildOptions opts;
    opts.removeSelfLoops = false;
    const Csr g = buildCsr(2, {{0, 0}, {0, 1}}, opts);
    EXPECT_EQ(g.numEdges, 2u);
}

TEST(Csr, DedupDropsParallelEdges)
{
    const Csr g = buildCsr(2, {{0, 1}, {0, 1}, {1, 0}});
    EXPECT_EQ(g.numEdges, 2u);
}

TEST(Csr, NoDedupKeepsParallelEdges)
{
    CsrBuildOptions opts;
    opts.dedup = false;
    const Csr g = buildCsr(2, {{0, 1}, {0, 1}}, opts);
    EXPECT_EQ(g.numEdges, 2u);
}

TEST(Csr, SymmetrizeAddsReverseEdges)
{
    const Csr g = buildCsr(3, {{0, 1}, {1, 2}});
    const Csr s = symmetrize(g);
    EXPECT_EQ(s.numEdges, 4u);
    EXPECT_EQ(s.degree(1), 2u); // 1 -> 0 and 1 -> 2
}

TEST(Csr, SymmetrizeIsIdempotent)
{
    RmatParams params;
    params.scale = 8;
    params.edgeFactor = 4;
    const Csr g = symmetrize(rmatGraph(params));
    const Csr s = symmetrize(g);
    EXPECT_EQ(g.numEdges, s.numEdges);
    EXPECT_EQ(g.rowPtr, s.rowPtr);
    EXPECT_EQ(g.colIdx, s.colIdx);
}

TEST(Csr, RandomWeightsInRange)
{
    Csr g = buildCsr(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
    Rng rng(9);
    addRandomWeights(g, rng, 3, 7);
    ASSERT_TRUE(g.weighted());
    for (const Word w : g.weights) {
        EXPECT_GE(w, 3u);
        EXPECT_LE(w, 7u);
    }
}

TEST(Csr, PermutePreservesStructure)
{
    Csr g = buildCsr(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
    Rng rng(4);
    addRandomWeights(g, rng, 1, 10);
    // Reverse permutation: v -> 3 - v.
    const std::vector<VertexId> perm = {3, 2, 1, 0};
    const Csr p = permuteVertices(g, perm);
    EXPECT_EQ(p.numEdges, g.numEdges);
    // Edge (0,1,w) becomes (3,2,w).
    bool found = false;
    for (EdgeId i = p.rowPtr[3]; i < p.rowPtr[4]; ++i) {
        if (p.colIdx[i] == 2) {
            found = true;
            // Weight carried through.
            EXPECT_EQ(p.weights[i], g.weights[g.rowPtr[0]]);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Csr, InvariantsPanicOnCorruption)
{
    Csr g = buildCsr(3, {{0, 1}, {1, 2}});
    g.rowPtr[1] = 99;
    EXPECT_DEATH(g.checkInvariants(), "monoton|out of range|must");
}

// --- golden digests ---------------------------------------------------
//
// FNV-1a digests of every graph the generators and converters build,
// pinned so any change to CSR construction that alters a single byte
// of rowPtr, colIdx or weights fails here, not in a downstream report.

/** FNV-1a, 64-bit, over a run of bytes, chained through `h`. */
std::uint64_t
fnv1a(std::uint64_t h, const void* data, std::size_t size)
{
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ull;

template <typename T>
std::uint64_t
fnv1a(std::uint64_t h, const std::vector<T>& xs)
{
    const std::uint64_t n = xs.size();
    h = fnv1a(h, &n, sizeof n);
    return fnv1a(h, xs.data(), xs.size() * sizeof(T));
}

std::uint64_t
digest(const Csr& g)
{
    return fnv1a(fnv1a(fnv1a(fnvBasis, g.rowPtr), g.colIdx), g.weights);
}

std::uint64_t
digest(const EdgeList& edges)
{
    std::uint64_t h = fnvBasis;
    for (const auto& [u, v] : edges) {
        h = fnv1a(h, &u, sizeof u);
        h = fnv1a(h, &v, sizeof v);
    }
    return h;
}

std::string
writeFixture(const std::string& name, const std::string& content)
{
    const std::string path = ::testing::TempDir() + "graph_test_" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    return path;
}

Csr
readFixture(const std::string& path, const TextReadOptions& opts = {})
{
    const TextGraphResult r = readTextGraph(path, opts);
    EXPECT_TRUE(r.ok) << r.error;
    return r.dataset.graph;
}

/** A weighted graph with parallel edges (differing weights) and self
 *  loops, relabeled by a seeded random permutation. */
Csr
permutedWeightedMultigraph()
{
    Rng rng(77);
    EdgeList edges;
    for (int i = 0; i < 600; ++i)
        edges.emplace_back(static_cast<VertexId>(rng.below(40)),
                           static_cast<VertexId>(rng.below(40)));
    CsrBuildOptions keep_all;
    keep_all.removeSelfLoops = false;
    keep_all.dedup = false;
    Csr g = buildCsr(40, edges, keep_all);
    addRandomWeights(g, rng, 1, 9);
    std::vector<VertexId> perm(40);
    for (VertexId v = 0; v < 40; ++v)
        perm[v] = v;
    for (VertexId v = 39; v > 0; --v)
        std::swap(perm[v], perm[rng.below(v + 1)]);
    return permuteVertices(g, perm);
}

TEST(GoldenDigest, RmatEdgesAndGraphs)
{
    RmatParams params;
    params.scale = 10;
    params.seed = 1;
    EXPECT_EQ(digest(rmatEdges(params)), 0xf0b3d154313df5f9ull);
    EXPECT_EQ(digest(rmatGraph(params)), 0x2aa13978ff4252d7ull);
    EXPECT_EQ(digest(symmetrize(rmatGraph(params))), 0x5daa47d695e83217ull);
    params.seed = 2;
    EXPECT_EQ(digest(rmatEdges(params)), 0x9c2f01b3bc5d494dull);
    EXPECT_EQ(digest(rmatGraph(params)), 0x0ae9505b405a36b3ull);
}

TEST(GoldenDigest, NamedDatasets)
{
    EXPECT_EQ(digest(makeDatasetAt("amazon", 10).graph),
              0xe1fd611932228bcaull);
    EXPECT_EQ(digest(makeDatasetAt("wiki", 10).graph), 0x51af5f4293a394feull);
    EXPECT_EQ(digest(makeDatasetAt("livejournal", 10).graph),
              0x90c2c245cb476d2bull);
}

TEST(GoldenDigest, PermutedWeightedMultigraph)
{
    const Csr p = permutedWeightedMultigraph();
    ASSERT_TRUE(p.weighted());
    EXPECT_EQ(p.numEdges, 600u);
    EXPECT_EQ(digest(p), 0x15c074ea0b7e73edull);
}

TEST(GoldenDigest, TextGraphs)
{
    const std::string el = writeFixture(
        "golden.el", "0 1\n1 2\n2 0\n2 2\n1 2\n3 1\n0 3\n3 1\n5 4\n");
    EXPECT_EQ(digest(readFixture(el)), 0x6167ffdbfa0cd072ull);
    TextReadOptions sym;
    sym.symmetrize = true;
    EXPECT_EQ(digest(readFixture(el, sym)), 0x8f3dca3fe449979eull);

    // Duplicate entries carry different weights, in both orders, so
    // the smallest-weight-first rule is pinned along with the layout.
    const std::string mtx = writeFixture(
        "golden.mtx", "%%MatrixMarket matrix coordinate real general\n"
                      "5 5 10\n"
                      "1 2 7.0\n2 3 4.0\n1 2 3.0\n3 1 9.0\n"
                      "3 1 2.0\n3 1 5.0\n4 4 6.0\n5 2 1.0\n"
                      "2 3 8.0\n1 5 2.5\n");
    EXPECT_EQ(digest(readFixture(mtx)), 0x9aaf740086cd0c06ull);
    TextReadOptions keep_all;
    keep_all.removeSelfLoops = false;
    keep_all.dedup = false;
    EXPECT_EQ(digest(readFixture(mtx, keep_all)), 0x2b599902d9c92b2aull);
    EXPECT_EQ(digest(readFixture(mtx, sym)), 0x198a9331e413d82dull);
}

// --- differential test ------------------------------------------------
//
// buildCsr() buckets edges into rows; this reference gets the same
// answer the obvious way, by sorting and uniquing (u, v, w) tuples.

Csr
referenceCsr(VertexId num_vertices, const EdgeList& edges,
             const std::vector<Word>& weights,
             const CsrBuildOptions& opts)
{
    std::vector<std::tuple<VertexId, VertexId, Word>> slots;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const auto [u, v] = edges[i];
        const Word w = weights.empty() ? 0 : weights[i];
        if (opts.removeSelfLoops && u == v)
            continue;
        slots.emplace_back(u, v, w);
        if (opts.symmetrize && u != v)
            slots.emplace_back(v, u, w);
    }
    std::sort(slots.begin(), slots.end());
    if (opts.dedup || opts.symmetrize) {
        slots.erase(std::unique(slots.begin(), slots.end(),
                                [](const auto& a, const auto& b) {
                                    return std::get<0>(a) ==
                                               std::get<0>(b) &&
                                           std::get<1>(a) ==
                                               std::get<1>(b);
                                }),
                    slots.end());
    }
    Csr g;
    g.numVertices = num_vertices;
    g.numEdges = static_cast<EdgeId>(slots.size());
    g.rowPtr.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
    for (const auto& [u, v, w] : slots) {
        ++g.rowPtr[u + 1];
        g.colIdx.push_back(v);
        if (!weights.empty())
            g.weights.push_back(w);
    }
    for (VertexId v = 0; v < num_vertices; ++v)
        g.rowPtr[v + 1] += g.rowPtr[v];
    return g;
}

/** Build `edges` under all eight option combinations, unweighted and
 *  with `weights`, and compare every result to referenceCsr(). */
void
expectMatchesReference(VertexId num_vertices, const EdgeList& edges,
                       const std::vector<Word>& weights,
                       const std::string& what)
{
    for (unsigned combo = 0; combo < 8; ++combo) {
        CsrBuildOptions opts;
        opts.removeSelfLoops = combo & 1;
        opts.dedup = combo & 2;
        opts.symmetrize = combo & 4;
        for (const bool weighted : {false, true}) {
            const std::vector<Word> w =
                weighted ? weights : std::vector<Word>{};
            const Csr got = buildCsr(num_vertices, edges, opts, w);
            const Csr want = referenceCsr(num_vertices, edges, w, opts);
            SCOPED_TRACE(what + " options " + std::to_string(combo) +
                         (weighted ? " weighted" : ""));
            EXPECT_EQ(got.numVertices, want.numVertices);
            EXPECT_EQ(got.numEdges, want.numEdges);
            EXPECT_EQ(got.rowPtr, want.rowPtr);
            EXPECT_EQ(got.colIdx, want.colIdx);
            EXPECT_EQ(got.weights, want.weights);
        }
    }
}

TEST(CsrDifferential, MatchesSortUniqueReference)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        // Every tenth list has a single vertex; the rest mix dense
        // lists (many self loops and parallel edges) with sparse ones
        // (many empty rows).
        const auto num_vertices = static_cast<VertexId>(
            seed % 10 == 0 ? 1 : 1 + rng.below(seed % 2 ? 6 : 60));
        const std::size_t num_edges = rng.below(80);
        EdgeList edges;
        std::vector<Word> weights;
        for (std::size_t i = 0; i < num_edges; ++i) {
            edges.emplace_back(
                static_cast<VertexId>(rng.below(num_vertices)),
                static_cast<VertexId>(rng.below(num_vertices)));
            weights.push_back(static_cast<Word>(rng.range(1, 4)));
        }
        expectMatchesReference(num_vertices, edges, weights,
                               "seed " + std::to_string(seed));
    }
}

TEST(CsrDifferential, HubRowsAndLongParallelRuns)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        const auto num_vertices =
            static_cast<VertexId>(2 + rng.below(30));
        const auto hub = static_cast<VertexId>(rng.below(num_vertices));
        EdgeList edges;
        std::vector<Word> weights;
        // Hub rows of 17 to 200 slots, in and out of `hub` (so the
        // symmetrized hub row is longer still), with self loops and
        // short runs of parallel edges mixed in.
        const std::size_t hub_slots = 17 + rng.below(184);
        for (std::size_t i = 0; i < hub_slots; ++i) {
            const auto other =
                static_cast<VertexId>(rng.below(num_vertices));
            if (rng.below(3) == 0)
                edges.emplace_back(other, hub);
            else
                edges.emplace_back(hub, other);
            weights.push_back(static_cast<Word>(rng.range(1, 1000)));
        }
        // Runs of 3 to 8 parallel copies of one edge (the first run a
        // self loop), each copy with a distinct weight in shuffled
        // order and the copies interleaved with other edges, so the
        // smallest weight can sit anywhere in the run.
        for (int run = 0; run < 6; ++run) {
            const auto u = static_cast<VertexId>(rng.below(num_vertices));
            const auto v = run == 0
                               ? u
                               : static_cast<VertexId>(
                                     rng.below(num_vertices));
            const std::size_t copies = 3 + rng.below(6);
            std::vector<Word> run_weights;
            for (std::size_t c = 0; c < copies; ++c)
                run_weights.push_back(static_cast<Word>(100 + 7 * c));
            for (std::size_t c = copies - 1; c > 0; --c)
                std::swap(run_weights[c], run_weights[rng.below(c + 1)]);
            for (const Word w : run_weights) {
                const auto at = rng.below(edges.size() + 1);
                edges.insert(edges.begin() + static_cast<long>(at),
                             {u, v});
                weights.insert(weights.begin() + static_cast<long>(at),
                               w);
            }
        }
        expectMatchesReference(num_vertices, edges, weights,
                               "seed " + std::to_string(seed));
    }
}

TEST(CsrDifferential, WeightCountMustMatchEdges)
{
    EXPECT_DEATH((void)buildCsr(2, {{0, 1}}, {},
                                std::vector<Word>{1, 2}),
                 "weights size");
}

TEST(Rmat, DeterministicBySeed)
{
    RmatParams params;
    params.scale = 10;
    params.edgeFactor = 4;
    const Csr a = rmatGraph(params);
    const Csr b = rmatGraph(params);
    EXPECT_EQ(a.rowPtr, b.rowPtr);
    EXPECT_EQ(a.colIdx, b.colIdx);
}

TEST(Rmat, DifferentSeedsDiffer)
{
    RmatParams params;
    params.scale = 10;
    params.edgeFactor = 4;
    const Csr a = rmatGraph(params);
    params.seed = 2;
    const Csr b = rmatGraph(params);
    EXPECT_NE(a.colIdx, b.colIdx);
}

TEST(Rmat, EdgeCountMatchesFactorBeforeCleanup)
{
    RmatParams params;
    params.scale = 9;
    params.edgeFactor = 7;
    const EdgeList edges = rmatEdges(params);
    EXPECT_EQ(edges.size(), std::size_t(7) << 9);
}

TEST(Rmat, VertexDomainRespected)
{
    RmatParams params;
    params.scale = 8;
    const Csr g = rmatGraph(params);
    EXPECT_EQ(g.numVertices, 256u);
    for (const VertexId v : g.colIdx)
        EXPECT_LT(v, 256u);
}

TEST(Rmat, GraphIsSkewed)
{
    RmatParams params;
    params.scale = 12;
    params.edgeFactor = 10;
    const Csr g = rmatGraph(params);
    std::vector<double> degrees(g.numVertices);
    for (VertexId v = 0; v < g.numVertices; ++v)
        degrees[v] = g.degree(v);
    // RMAT with a=0.57 is strongly skewed; uniform graphs sit ~0.5.
    EXPECT_GT(giniCoefficient(degrees), 0.55);
    EXPECT_GT(imbalanceFactor(degrees), 10.0);
}

TEST(Rmat, MilderParametersLessSkewed)
{
    RmatParams strong;
    strong.scale = 12;
    RmatParams mild = strong;
    mild.a = 0.3;
    mild.b = 0.25;
    mild.c = 0.25;
    auto gini = [](const Csr& g) {
        std::vector<double> d(g.numVertices);
        for (VertexId v = 0; v < g.numVertices; ++v)
            d[v] = g.degree(v);
        return giniCoefficient(d);
    };
    EXPECT_GT(gini(rmatGraph(strong)), gini(rmatGraph(mild)));
}

TEST(Datasets, AliasesResolve)
{
    EXPECT_EQ(makeDatasetAt("AZ", 10).name, "AZ");
    EXPECT_EQ(makeDatasetAt("wiki", 10).name, "WK");
    EXPECT_EQ(makeDatasetAt("LJ", 10).name, "LJ");
    EXPECT_EQ(makeDataset("rmat8").name, "R8");
}

TEST(Datasets, AverageDegreesMatchProvenance)
{
    const Dataset wk = makeDatasetAt("wiki", 12);
    const double wk_deg =
        static_cast<double>(wk.graph.numEdges) / wk.graph.numVertices;
    EXPECT_NEAR(wk_deg, 24.0, 4.0); // Wikipedia ~24 (self loops cut)

    const Dataset lj = makeDatasetAt("livejournal", 12);
    const double lj_deg =
        static_cast<double>(lj.graph.numEdges) / lj.graph.numVertices;
    EXPECT_NEAR(lj_deg, 15.0, 3.0); // LiveJournal ~15
}

TEST(Datasets, DeterministicAndSeedSensitive)
{
    const Dataset a = makeDatasetAt("amazon", 10, 5);
    const Dataset b = makeDatasetAt("amazon", 10, 5);
    const Dataset c = makeDatasetAt("amazon", 10, 6);
    EXPECT_EQ(a.graph.colIdx, b.graph.colIdx);
    EXPECT_NE(a.graph.colIdx, c.graph.colIdx);
}

TEST(Datasets, ProvenanceDocumented)
{
    for (const char* name : {"amazon", "wiki", "livejournal", "rmat8"})
        EXPECT_FALSE(makeDataset(name).provenance.empty()) << name;
}

TEST(Datasets, UnknownNameIsFatal)
{
    EXPECT_DEATH((void)makeDataset("nosuchgraph"), "unknown dataset");
}

} // namespace
} // namespace dalorex
