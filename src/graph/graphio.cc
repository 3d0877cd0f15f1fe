#include "graph/graphio.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/text.hh"

namespace dalorex
{
namespace
{

/** Parser output before cleanup/CSR construction. */
struct ParsedGraph
{
    std::uint64_t numVertices = 0;
    EdgeList edges;
    /** Parallel to `edges` when the input is weighted, else empty. */
    std::vector<Word> weights;
    bool weighted = false;
};

TextGraphResult
failRead(const std::string& message)
{
    TextGraphResult result;
    result.ok = false;
    result.error = message;
    return result;
}

std::string
atLine(const std::string& path, std::size_t line)
{
    return path + ":" + std::to_string(line);
}

const char*
skipBlanks(const char* p)
{
    while (*p == ' ' || *p == '\t' || *p == '\r')
        ++p;
    return p;
}

/** Parse one decimal u64 token; advances `p` past it on success. */
bool
takeU64(const char*& p, std::uint64_t& out)
{
    p = skipBlanks(p);
    if (!std::isdigit(static_cast<unsigned char>(*p)))
        return false;
    errno = 0;
    char* end = nullptr;
    out = std::strtoull(p, &end, 10);
    if (errno != 0)
        return false;
    p = end;
    return true;
}

/** Parse one real token (MatrixMarket values); advances `p`. */
bool
takeDouble(const char*& p, double& out)
{
    p = skipBlanks(p);
    errno = 0;
    char* end = nullptr;
    out = std::strtod(p, &end);
    if (errno != 0 || end == p)
        return false;
    p = end;
    return true;
}

bool
lineDone(const char* p)
{
    return *skipBlanks(p) == '\0';
}

/** Convert a real edge value to a Word weight; false when out of
 *  domain (negative or beyond 32 bits). */
bool
toWeight(double value, Word& out)
{
    if (!(value >= 0.0) ||
        value > static_cast<double>(
                    std::numeric_limits<Word>::max()))
        return false;
    out = static_cast<Word>(value + 0.5);
    return true;
}

bool
parseEdgeList(std::istream& in, const std::string& path,
              ParsedGraph& pg, std::string& error)
{
    std::string line;
    std::size_t lineno = 0;
    std::uint64_t max_id = 0;
    bool saw_weight = false;
    bool saw_unweighted = false;
    while (std::getline(in, line)) {
        ++lineno;
        const char* p = skipBlanks(line.c_str());
        if (*p == '\0' || *p == '#' || *p == '%' ||
            (p[0] == '/' && p[1] == '/'))
            continue;
        std::uint64_t u = 0;
        std::uint64_t v = 0;
        if (!takeU64(p, u) || !takeU64(p, v)) {
            error = "bad edge line (want: u v [w]) at " +
                    atLine(path, lineno);
            return false;
        }
        std::uint64_t w = 0;
        if (!lineDone(p)) {
            if (!takeU64(p, w) || !lineDone(p) ||
                w > std::numeric_limits<Word>::max()) {
                error = "bad edge weight at " + atLine(path, lineno);
                return false;
            }
            saw_weight = true;
        } else {
            saw_unweighted = true;
        }
        if (saw_weight && saw_unweighted) {
            error = "mixed weighted and unweighted edge lines at " +
                    atLine(path, lineno);
            return false;
        }
        if (u >= std::numeric_limits<VertexId>::max() ||
            v >= std::numeric_limits<VertexId>::max()) {
            error = "vertex id exceeds the 32-bit domain at " +
                    atLine(path, lineno);
            return false;
        }
        max_id = std::max({max_id, u, v});
        pg.edges.emplace_back(static_cast<VertexId>(u),
                              static_cast<VertexId>(v));
        if (saw_weight)
            pg.weights.push_back(static_cast<Word>(w));
    }
    pg.weighted = saw_weight;
    pg.numVertices = pg.edges.empty() ? 0 : max_id + 1;
    return true;
}

bool
parseMatrixMarket(std::istream& in, const std::string& path,
                  ParsedGraph& pg, std::string& error)
{
    std::string line;
    if (!std::getline(in, line)) {
        error = "empty MatrixMarket file: " + path;
        return false;
    }
    // "%%MatrixMarket matrix coordinate <field> <symmetry>"
    std::size_t lineno = 1;
    {
        std::istringstream banner(line);
        std::string tag;
        std::string object;
        std::string storage;
        std::string field;
        std::string symmetry;
        banner >> tag >> object >> storage >> field >> symmetry;
        if (toLower(tag) != "%%matrixmarket" ||
            toLower(object) != "matrix") {
            error = "not a MatrixMarket file (bad banner): " + path;
            return false;
        }
        if (toLower(storage) != "coordinate") {
            error = "only coordinate MatrixMarket files are "
                    "supported: " + path;
            return false;
        }
        const std::string f = toLower(field);
        if (f != "real" && f != "integer" && f != "pattern") {
            error = "unsupported MatrixMarket field '" + field +
                    "' (want real|integer|pattern): " + path;
            return false;
        }
        pg.weighted = f != "pattern";
        const std::string s = toLower(symmetry);
        if (s != "general" && s != "symmetric") {
            error = "unsupported MatrixMarket symmetry '" + symmetry +
                    "' (want general|symmetric): " + path;
            return false;
        }
        pg.numVertices = s == "symmetric" ? 1 : 0; // flag, fixed below
    }
    const bool symmetric = pg.numVertices == 1;
    pg.numVertices = 0;

    std::uint64_t rows = 0;
    std::uint64_t cols = 0;
    std::uint64_t nnz = 0;
    bool have_dims = false;
    while (std::getline(in, line)) {
        ++lineno;
        const char* p = skipBlanks(line.c_str());
        if (*p == '\0' || *p == '%')
            continue;
        if (!have_dims) {
            if (!takeU64(p, rows) || !takeU64(p, cols) ||
                !takeU64(p, nnz) || !lineDone(p)) {
                error = "bad MatrixMarket size line (want: rows cols "
                        "nnz) at " + atLine(path, lineno);
                return false;
            }
            const std::uint64_t dim = std::max(rows, cols);
            if (dim >= std::numeric_limits<VertexId>::max()) {
                error = "matrix dimension exceeds the 32-bit vertex "
                        "domain: " + path;
                return false;
            }
            pg.numVertices = dim;
            pg.edges.reserve(nnz);
            if (pg.weighted)
                pg.weights.reserve(nnz);
            have_dims = true;
            continue;
        }
        std::uint64_t i = 0;
        std::uint64_t j = 0;
        if (!takeU64(p, i) || !takeU64(p, j)) {
            error = "bad MatrixMarket entry (want: i j [value]) at " +
                    atLine(path, lineno);
            return false;
        }
        Word w = 0;
        if (pg.weighted) {
            double value = 0.0;
            if (!takeDouble(p, value) || !toWeight(value, w)) {
                error = "bad MatrixMarket value (want a real in "
                        "[0, 2^32)) at " + atLine(path, lineno);
                return false;
            }
        }
        if (!lineDone(p)) {
            error = "trailing junk on MatrixMarket entry at " +
                    atLine(path, lineno);
            return false;
        }
        if (i < 1 || i > rows || j < 1 || j > cols) {
            error = "MatrixMarket entry outside the declared " +
                    std::to_string(rows) + "x" +
                    std::to_string(cols) + " shape at " +
                    atLine(path, lineno);
            return false;
        }
        const auto u = static_cast<VertexId>(i - 1);
        const auto v = static_cast<VertexId>(j - 1);
        pg.edges.emplace_back(u, v);
        if (pg.weighted)
            pg.weights.push_back(w);
        if (symmetric && u != v) {
            pg.edges.emplace_back(v, u);
            if (pg.weighted)
                pg.weights.push_back(w);
        }
    }
    if (!have_dims) {
        error = "MatrixMarket file has no size line: " + path;
        return false;
    }
    return true;
}

bool
parseDimacsGr(std::istream& in, const std::string& path,
              ParsedGraph& pg, std::string& error)
{
    std::string line;
    std::size_t lineno = 0;
    std::uint64_t declared_vertices = 0;
    bool have_problem = false;
    pg.weighted = true;
    while (std::getline(in, line)) {
        ++lineno;
        const char* p = skipBlanks(line.c_str());
        if (*p == '\0' || *p == 'c')
            continue;
        if (*p == 'p') {
            ++p;
            p = skipBlanks(p);
            if (p[0] != 's' || p[1] != 'p') {
                error = "not a DIMACS shortest-path file (want 'p sp "
                        "V E') at " + atLine(path, lineno);
                return false;
            }
            p += 2;
            std::uint64_t m = 0;
            if (!takeU64(p, declared_vertices) || !takeU64(p, m) ||
                !lineDone(p)) {
                error = "bad DIMACS problem line at " +
                        atLine(path, lineno);
                return false;
            }
            if (declared_vertices >=
                std::numeric_limits<VertexId>::max()) {
                error = "DIMACS vertex count exceeds the 32-bit "
                        "domain: " + path;
                return false;
            }
            pg.numVertices = declared_vertices;
            pg.edges.reserve(m);
            pg.weights.reserve(m);
            have_problem = true;
            continue;
        }
        if (*p == 'a') {
            ++p;
            if (!have_problem) {
                error = "DIMACS arc before the problem line at " +
                        atLine(path, lineno);
                return false;
            }
            std::uint64_t u = 0;
            std::uint64_t v = 0;
            std::uint64_t w = 0;
            if (!takeU64(p, u) || !takeU64(p, v) || !takeU64(p, w) ||
                !lineDone(p) ||
                w > std::numeric_limits<Word>::max()) {
                error = "bad DIMACS arc (want: a u v w) at " +
                        atLine(path, lineno);
                return false;
            }
            if (u < 1 || u > declared_vertices || v < 1 ||
                v > declared_vertices) {
                error = "DIMACS arc endpoint outside [1, " +
                        std::to_string(declared_vertices) + "] at " +
                        atLine(path, lineno);
                return false;
            }
            pg.edges.emplace_back(static_cast<VertexId>(u - 1),
                                  static_cast<VertexId>(v - 1));
            pg.weights.push_back(static_cast<Word>(w));
            continue;
        }
        error = "unknown DIMACS line type '" + std::string(1, *p) +
                "' at " + atLine(path, lineno);
        return false;
    }
    if (!have_problem) {
        error = "DIMACS file has no 'p sp V E' line: " + path;
        return false;
    }
    return true;
}

bool
endsWith(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/** Resolve autoDetect: extension first, then leading content. */
GraphTextFormat
detectFormat(const std::string& path)
{
    const std::string lower = toLower(path);
    if (endsWith(lower, ".mtx") || endsWith(lower, ".mm"))
        return GraphTextFormat::matrixMarket;
    if (endsWith(lower, ".gr") || endsWith(lower, ".dimacs"))
        return GraphTextFormat::dimacsGr;

    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const char* p = skipBlanks(line.c_str());
        if (*p == '\0')
            continue;
        if (line.rfind("%%MatrixMarket", 0) == 0)
            return GraphTextFormat::matrixMarket;
        if ((*p == 'c' || *p == 'p') &&
            (p[1] == ' ' || p[1] == '\t' || p[1] == '\0'))
            return GraphTextFormat::dimacsGr;
        break;
    }
    return GraphTextFormat::edgeList;
}

} // namespace

bool
parseGraphTextFormat(const std::string& text, GraphTextFormat& out)
{
    const std::string f = toLower(text);
    if (f == "auto")
        out = GraphTextFormat::autoDetect;
    else if (f == "edgelist" || f == "el" || f == "edge-list")
        out = GraphTextFormat::edgeList;
    else if (f == "matrix-market" || f == "mtx" || f == "mm")
        out = GraphTextFormat::matrixMarket;
    else if (f == "dimacs" || f == "gr")
        out = GraphTextFormat::dimacsGr;
    else
        return false;
    return true;
}

const char*
toString(GraphTextFormat format)
{
    switch (format) {
      case GraphTextFormat::autoDetect: return "auto";
      case GraphTextFormat::edgeList: return "edgelist";
      case GraphTextFormat::matrixMarket: return "matrix-market";
      case GraphTextFormat::dimacsGr: return "dimacs";
    }
    return "auto";
}

std::string
fileStem(const std::string& path)
{
    const std::size_t slash = path.find_last_of("/\\");
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = base.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        base = base.substr(0, dot);
    return base;
}

TextGraphResult
readTextGraph(const std::string& path, const TextReadOptions& opts)
{
    std::ifstream in(path);
    if (!in)
        return failRead("cannot open input file: " + path);

    GraphTextFormat format = opts.format;
    if (format == GraphTextFormat::autoDetect)
        format = detectFormat(path);

    ParsedGraph pg;
    std::string error;
    bool parsed = false;
    switch (format) {
      case GraphTextFormat::edgeList:
        parsed = parseEdgeList(in, path, pg, error);
        break;
      case GraphTextFormat::matrixMarket:
        parsed = parseMatrixMarket(in, path, pg, error);
        break;
      case GraphTextFormat::dimacsGr:
        parsed = parseDimacsGr(in, path, pg, error);
        break;
      case GraphTextFormat::autoDetect:
        error = "unresolved graph format: " + path;
        break;
    }
    if (!parsed)
        return failRead(error);

    // Every kept edge takes one CSR slot, two when symmetrizing; the
    // slot count must fit EdgeId before cleanup drops any.
    const std::uint64_t slots =
        std::uint64_t(pg.edges.size()) * (opts.symmetrize ? 2 : 1);
    if (slots > std::numeric_limits<EdgeId>::max())
        return failRead("edge count exceeds the 32-bit domain: " +
                        path);
    CsrBuildOptions build;
    build.removeSelfLoops = opts.removeSelfLoops;
    build.dedup = opts.dedup;
    build.symmetrize = opts.symmetrize;
    Csr graph = buildCsr(static_cast<VertexId>(pg.numVertices),
                         pg.edges, build, pg.weights);
    if (graph.numEdges == 0)
        return failRead("input has no edges after cleanup: " + path);

    TextGraphResult result;
    Dataset& ds = result.dataset;
    ds.name = fileStem(path);
    ds.provenance =
        std::string("converted from ") + toString(format) + " " +
        path + (pg.weighted ? " (weighted)" : "") +
        (opts.symmetrize ? ", symmetrized" : "") +
        (opts.removeSelfLoops ? ", self loops removed" : "") +
        (opts.dedup || opts.symmetrize ? ", deduplicated" : "");
    ds.graph = std::move(graph);
    return result;
}

} // namespace dalorex
