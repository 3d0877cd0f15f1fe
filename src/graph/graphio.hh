/**
 * @file
 * Text graph ingestion for `dalorex convert`.
 *
 * Three interchange formats cover the common public graph corpora:
 *
 *  - plain edge lists ("u v [w]" per line, `#`/`%` comments) — the
 *    SNAP download format;
 *  - MatrixMarket coordinate files (`%%MatrixMarket matrix
 *    coordinate ...`, 1-based) — the SuiteSparse collection;
 *  - DIMACS shortest-path `.gr` files (`p sp V E`, `a u v w`,
 *    1-based) — the road-network challenge inputs.
 *
 * Every parse failure (junk tokens, out-of-range ids, truncated
 * declarations) is a recoverable one-line error naming the offending
 * line, never a crash. Cleanup is buildCsr()'s: self loops
 * dropped, duplicates deduplicated (the smallest weight wins),
 * optional symmetrization — all deterministic, so converting the same
 * input twice writes byte-identical graph files.
 */

#ifndef DALOREX_GRAPH_GRAPHIO_HH
#define DALOREX_GRAPH_GRAPHIO_HH

#include <string>

#include "graph/datasets.hh"

namespace dalorex
{

/** The text formats `dalorex convert` ingests. */
enum class GraphTextFormat
{
    autoDetect, //!< by extension, then by leading content
    edgeList,
    matrixMarket,
    dimacsGr,
};

/** Parse a --format value; false on unknown names. */
bool parseGraphTextFormat(const std::string& text,
                          GraphTextFormat& out);

const char* toString(GraphTextFormat format);

/** Cleanup applied between parsing and CSR construction. */
struct TextReadOptions
{
    GraphTextFormat format = GraphTextFormat::autoDetect;
    /** Drop (u, u) self loops. */
    bool removeSelfLoops = true;
    /** Drop duplicate (u, v) pairs (the first weight wins). */
    bool dedup = true;
    /** Add the reverse of every edge (undirected view). */
    bool symmetrize = false;
};

/** Outcome of reading a text graph: a Dataset, or a diagnostic. */
struct TextGraphResult
{
    /** name = file stem, provenance = source format and cleanup. */
    Dataset dataset;
    bool ok = true;
    std::string error; //!< one line, set when !ok
};

/**
 * Read `path` in the given (or detected) format and build the CSR.
 * Weighted inputs (edge lists with a third column, non-pattern
 * MatrixMarket, DIMACS .gr) keep their weights as 32-bit words.
 */
TextGraphResult readTextGraph(const std::string& path,
                              const TextReadOptions& opts = {});

/** The file-name stem ("/a/b/road.gr" -> "road"). */
std::string fileStem(const std::string& path);

} // namespace dalorex

#endif // DALOREX_GRAPH_GRAPHIO_HH
