#include "sweep/aggregate.hh"

#include <algorithm>
#include <map>

#include "cli/scenario.hh"
#include "serve/json.hh"

namespace dalorex
{
namespace sweep
{
namespace
{

/** Dataset label: the scale override distinguishes e.g. WK@14 from
 *  WK@16 (the generated name alone is scale-blind). */
std::string
datasetLabel(const cli::Report& report)
{
    std::string label = report.datasetName;
    if (report.options.datasetScale > 0)
        label += "@" + std::to_string(report.options.datasetScale);
    return label;
}

/**
 * Rows sharing this key form a group: every scenario axis but the
 * grid shape, which is what a group's rows vary.
 */
std::string
groupKey(const cli::Report& report)
{
    cli::Options options = report.options;
    options.machine.width = 0;
    options.machine.height = 0;
    return cli::renderAxes(options, true);
}

GridShape
shapeOf(const cli::Report& report)
{
    return {report.options.machine.width,
            report.options.machine.height};
}

std::string
describeGroup(const cli::Report& report)
{
    const cli::Options& o = report.options;
    return o.kernel->display + " on " + datasetLabel(report) + ", " +
           toString(o.machine.topology) + "/" +
           toString(o.machine.policy);
}

/** How a column shows its value in the table and in JSONL. */
enum class Format
{
    text,  //!< as is; a JSON string in JSONL
    count, //!< decimal integer
    flag,  //!< on/off in the table, true/false in JSONL
    fixed, //!< `digits` decimals in the table
    sci,   //!< scientific with `digits` decimals in the table
};

/** One column of a sweep row: a table (CSV) header, a JSONL key, or
 *  both. Real values print with Table::num in JSONL. */
struct Column
{
    const char* header; //!< nullptr: JSONL only
    const char* key;    //!< nullptr: table only
    Format format;
    int digits;
    std::string (*text)(const Row&);
    std::uint64_t (*count)(const Row&); //!< count and flag
    double (*real)(const Row&);         //!< fixed and sci
    /** "-" in the table and null in JSONL when the row's group has no
     *  baseline. */
    bool needsBaseline = false;
};

// The value of a column, written over `row` and its report `r`.
#define GETTER(type, expr)                                            \
    [](const Row& row) -> type {                                      \
        [[maybe_unused]] const cli::Report& r = row.report;           \
        return expr;                                                  \
    }
#define TEXT(expr)                                                    \
    Format::text, 0, GETTER(std::string, expr), nullptr, nullptr
#define COUNT(expr)                                                   \
    Format::count, 0, nullptr, GETTER(std::uint64_t, expr), nullptr
#define FLAG(expr)                                                    \
    Format::flag, 0, nullptr, GETTER(std::uint64_t, expr), nullptr
#define FIXED(digits, expr)                                           \
    Format::fixed, digits, nullptr, nullptr, GETTER(double, expr)
#define SCI(expr) Format::sci, 3, nullptr, nullptr, GETTER(double, expr)

/** Every sweep-row column, in rendered order. */
const std::vector<Column>&
columns()
{
    static const std::vector<Column> table = {
        {"kernel", "kernel", TEXT(r.options.kernel->name)},
        {"dataset", "dataset", TEXT(datasetLabel(r))},
        {"vertices", "vertices", COUNT(r.numVertices)},
        {"edges", "edges", COUNT(r.numEdges)},
        {nullptr, "width", COUNT(r.options.machine.width)},
        {nullptr, "height", COUNT(r.options.machine.height)},
        {"tiles", "tiles", COUNT(r.options.machine.numTiles())},
        {"grid", nullptr, TEXT(toString(shapeOf(r)))},
        {"topology", "topology", TEXT(toString(r.options.machine.topology))},
        {"policy", "policy", TEXT(toString(r.options.machine.policy))},
        {"distribution", "distribution",
         TEXT(toString(r.options.machine.distribution))},
        {"barrier", "barrier", FLAG(r.options.machine.barrier)},
        {"eng_thr", "engine_threads",
         COUNT(std::max(1u, r.options.machine.engineThreads))},
        {nullptr, "seed", COUNT(r.options.seed)},
        {"cycles", "cycles", COUNT(r.stats.cycles)},
        {"epochs", "epochs", COUNT(r.stats.epochs)},
        {"seconds", "seconds", SCI(r.seconds)},
        {"edges_proc", "edges_processed", COUNT(r.stats.edgesProcessed)},
        {"pu_util", "pu_utilization", FIXED(3, r.stats.utilization())},
        {"edges/s", "edges_per_sec",
         SCI(static_cast<double>(r.stats.edgesProcessed) / r.seconds)},
        {"ops/s", "ops_per_sec",
         SCI(static_cast<double>(r.stats.puOps) / r.seconds)},
        {"mem_bw_B/s", "mem_bw_bytes_per_sec", SCI(r.bandwidthBytesPerSec)},
        {"KB/tile", "kb_per_tile",
         FIXED(1, static_cast<double>(r.stats.scratchpadBytesMax) / 1024.0)},
        {"verts/tile", "vertices_per_tile",
         COUNT(r.numVertices / r.options.machine.numTiles())},
        {"energy_J", "energy_j", SCI(r.energy.totalJ())},
        {"logic_pct", "logic_pct", FIXED(1, r.energy.logicPct())},
        {"memory_pct", "memory_pct", FIXED(1, r.energy.memoryPct())},
        {"network_pct", "network_pct", FIXED(1, r.energy.networkPct())},
        {"energy/edge_J", "energy_per_edge_j", SCI(row.energyPerEdgeJ)},
        {"speedup", "speedup", FIXED(3, row.speedup), true},
        {"par_eff", "parallel_efficiency", FIXED(3, row.parallelEff), true},
        {nullptr, "is_baseline", FLAG(row.isBaseline)},
        {nullptr, "validated", FLAG(r.validated)},
    };
    return table;
}

#undef GETTER
#undef TEXT
#undef COUNT
#undef FLAG
#undef FIXED
#undef SCI

/** One cell of `row` in the table (json = false) or in JSONL. */
std::string
cell(const Column& column, const Row& row, bool json)
{
    if (column.needsBaseline && !row.hasBaseline)
        return json ? "null" : "-";
    switch (column.format) {
      case Format::text:
        return json ? serve::jsonQuote(column.text(row)) : column.text(row);
      case Format::count:
        return std::to_string(column.count(row));
      case Format::flag:
        return column.count(row) != 0 ? (json ? "true" : "on")
                                      : (json ? "false" : "off");
      case Format::fixed:
        return json ? Table::num(column.real(row))
                    : Table::fmt(column.real(row), column.digits);
      case Format::sci:
        break;
    }
    return json ? Table::num(column.real(row))
                : Table::sci(column.real(row), column.digits);
}

} // namespace

AggregateResult
aggregate(const std::vector<cli::Report>& reports,
          const GridShape& baseline, MissingBaseline missing)
{
    AggregateResult result;

    // First matching row per group becomes that group's baseline.
    std::map<std::string, std::size_t> baselineIndex;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (!(shapeOf(reports[i]) == baseline))
            continue;
        baselineIndex.emplace(groupKey(reports[i]), i);
    }

    for (const cli::Report& report : reports) {
        Row row;
        row.report = report;
        row.energyPerEdgeJ =
            report.stats.edgesProcessed > 0
                ? report.energy.totalJ() /
                      static_cast<double>(report.stats.edgesProcessed)
                : 0.0;

        const auto base = baselineIndex.find(groupKey(report));
        if (base == baselineIndex.end()) {
            if (missing == MissingBaseline::error) {
                result.ok = false;
                result.error = "no baseline row (" +
                               toString(baseline) + ") for " +
                               describeGroup(report);
                result.rows.clear();
                return result;
            }
            row.hasBaseline = false;
            row.speedup = 0.0;
            row.parallelEff = 0.0;
        } else {
            const cli::Report& ref = reports[base->second];
            row.isBaseline = shapeOf(report) == baseline;
            row.speedup = report.seconds > 0.0
                              ? ref.seconds / report.seconds
                              : 0.0;
            const double tileRatio =
                static_cast<double>(
                    report.options.machine.numTiles()) /
                static_cast<double>(ref.options.machine.numTiles());
            row.parallelEff =
                tileRatio > 0.0 ? row.speedup / tileRatio : 0.0;
        }
        result.rows.push_back(std::move(row));
    }
    return result;
}

Table
toTable(const std::vector<Row>& rows)
{
    std::vector<std::string> headers;
    for (const Column& column : columns())
        if (column.header != nullptr)
            headers.push_back(column.header);
    Table table(std::move(headers));
    for (const Row& row : rows) {
        std::vector<std::string> cells;
        for (const Column& column : columns())
            if (column.header != nullptr)
                cells.push_back(cell(column, row, false));
        table.addRow(std::move(cells));
    }
    return table;
}

std::string
toJsonl(const std::vector<Row>& rows)
{
    std::string out;
    for (const Row& row : rows) {
        char separator = '{';
        for (const Column& column : columns())
            if (column.key != nullptr) {
                out += separator + std::string("\"") + column.key +
                       "\":" + cell(column, row, true);
                separator = ',';
            }
        out += "}\n";
    }
    return out;
}

void
writeCsvIfEnabled(const std::string& dir, const Table& table,
                  const std::string& name)
{
    if (dir.empty())
        return;
    table.writeCsv(dir + "/" + name + ".csv");
}

} // namespace sweep
} // namespace dalorex
