#include "cli/scenario.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "common/text.hh"
#include "graph/datasets.hh"

namespace dalorex
{
namespace cli
{
namespace
{

constexpr std::uint64_t anyU64 = std::numeric_limits<std::uint64_t>::max();

// The numeric get/set pair of a row over one Options field.
#define FIELD(field)                                                  \
    .get = [](const Options& o) { return std::uint64_t(o.field); },   \
    .set = [](Options& o, std::uint64_t v) {                          \
        o.field = static_cast<decltype(o.field)>(v);                  \
    }

/** Shortest round-trippable rendering of a double (param values). */
std::string
formatDouble(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    for (int precision = 1; precision < 17; ++precision) {
        char candidate[32];
        std::snprintf(candidate, sizeof candidate, "%.*g", precision,
                      value);
        double back = 0.0;
        std::sscanf(candidate, "%lf", &back);
        if (back == value)
            return candidate;
    }
    return buf;
}

bool
numeric(const Axis& axis)
{
    return axis.kind == AxisKind::u32 || axis.kind == AxisKind::u64;
}

bool
inRange(const Axis& axis, std::uint64_t value)
{
    return (value >= axis.min && value <= axis.max) ||
           (axis.zeroUnsets && value == 0);
}

/** "in [min, max]" of a bounded numeric axis ("" when unbounded). */
std::string
rangeText(const Axis& axis)
{
    if (!numeric(axis) || (axis.min == 0 && axis.max == anyU64))
        return "";
    return std::string(axis.zeroUnsets ? "0 or " : "") + "in [" +
           std::to_string(axis.min) + ", " + std::to_string(axis.max) +
           "]";
}

/** The accepted names of a choice/kernel/dataset axis, "a|b|c". */
std::string
valueList(const Axis& axis)
{
    if (axis.kind == AxisKind::kernel)
        return KernelRegistry::instance().namesText();
    std::string list;
    if (axis.kind == AxisKind::choice)
        for (const auto& names : axis.choices)
            list += (list.empty() ? "" : "|") + std::string(names[0]);
    if (axis.kind == AxisKind::dataset)
        for (const DatasetListing& ds : datasetCatalog())
            list += (list.empty() ? "" : "|") + ds.name;
    return list;
}

std::string
axisError(const Axis& axis, const std::string& name,
          const std::string& shown)
{
    if (numeric(axis))
        return name + " must be " +
               (rangeText(axis).empty() ? "a non-negative integer"
                                        : rangeText(axis)) +
               ", got " + shown;
    if (axis.kind == AxisKind::flag)
        return name + " must be true or false, got " + shown;
    if (axis.kind == AxisKind::params)
        return name + " must be a K=V,... string, got " + shown;
    return "unknown " + name + ": " + shown + " (" + valueList(axis) +
           ")";
}

/** One --help entry: `left` padded to the text column and `text`
 *  word-wrapped under it. */
std::string
helpEntry(std::string left, const std::string& text)
{
    constexpr std::size_t column = 24;
    constexpr std::size_t width = 78;
    left.append(left.size() < column ? column - left.size() : 1, ' ');
    std::size_t line_start = 0;
    std::istringstream words(text);
    std::string word;
    for (bool first = true; words >> word; first = false) {
        if (!first && left.size() - line_start + word.size() >= width) {
            line_start = left.size() + 1;
            left += "\n" + std::string(column, ' ');
        } else if (!first) {
            left += ' ';
        }
        left += word;
    }
    return left + "\n";
}

} // namespace

const std::vector<Axis>&
scenarioAxes()
{
    constexpr unsigned all = onCli | onSweepList | onServe;
    constexpr unsigned single = onCli | onSweep | onServe;
    constexpr const char* machine = "machine";
    static const std::vector<Axis> axes = {
        {.key = "kernel", .flag = "--kernel", .kind = AxisKind::kernel,
         .surfaces = all, .perPoint = true, .report = "",
         .sweepHelp = "kernels, or all for every one (default all):"},
        {.key = "dataset", .flag = "--dataset", .kind = AxisKind::dataset,
         .surfaces = all,
         .help = "named graph instead of the RMAT scale (file:PATH is "
                 "written by `dalorex convert`):",
         .sweepHelp = "named graphs instead of RMAT scales; NAME@SCALE "
                      "pins a stand-in's vertex scale:"},
        {.key = "scale", .flag = "--scale", .min = 4, .max = 26,
         .surfaces = all, .help = "RMAT scale (V = 2^N)",
         .sweepHelp = "RMAT scales when no dataset is named (default 10 "
                      "quick, 14 full), each",
         FIELD(scale)},
        {.key = "dataset_scale", .min = 4, .max = 31, .zeroUnsets = true,
         .surfaces = onServe,
         .help = "vertex scale of a named stand-in (0 = native size):",
         FIELD(datasetScale)},
        {.key = "width", .flag = "--width", .min = 1, .max = 1024,
         .surfaces = onCli | onServe, .report = machine,
         .help = "grid width", FIELD(machine.width)},
        {.key = "height", .flag = "--height", .min = 1, .max = 1024,
         .surfaces = onCli | onServe, .report = machine,
         .help = "grid height", FIELD(machine.height)},
        {.key = "topology", .flag = "--topology", .kind = AxisKind::choice,
         .choices = {{"mesh"}, {"torus"}, {"torus-ruche", "ruche"}},
         .surfaces = all, .perPoint = true, .report = machine,
         .help = "NoC:", FIELD(machine.topology)},
        {.key = "ruche_factor", .flag = "--ruche-factor", .min = 2,
         .max = 64, .zeroUnsets = true, .surfaces = single,
         .report = machine,
         .help = "ruche hop distance on torus-ruche, below the grid "
                 "width (0 = 2):",
         FIELD(machine.rucheFactor)},
        {.key = "policy", .flag = "--policy", .kind = AxisKind::choice,
         .choices = {{"round-robin", "rr"}, {"traffic-aware", "ta"}},
         .surfaces = all, .perPoint = true, .report = machine,
         .help = "TSU scheduling:",
         FIELD(machine.policy)},
        {.key = "distribution", .flag = "--distribution",
         .kind = AxisKind::choice,
         .choices = {{"low-order", "low"}, {"high-order", "high"}},
         .surfaces = all, .perPoint = true, .report = machine,
         .help = "vertex placement:",
         FIELD(machine.distribution)},
        {.key = "barrier", .flag = "--barrier", .kind = AxisKind::flag,
         .surfaces = onCli | onServe, .perPoint = true,
         .report = machine,
         .help = "force epoch-synchronized execution",
         FIELD(machine.barrier)},
        {.key = "invoke_overhead", .flag = "--invoke-overhead",
         .max = 1'000'000, .surfaces = single, .report = machine,
         .help = "extra cycles per task invocation",
         FIELD(machine.invokeOverhead)},
        {.key = "max_cycles", .flag = "--max-cycles", .kind = AxisKind::u64,
         .max = anyU64, .surfaces = onCli | onServe,
         .help = "hard cycle limit (0 = none); an overrun ends the run "
                 "with status \"timeout\"",
         FIELD(machine.maxCycles)},
        // MachineConfig runs 0 engine threads as 1; render them so.
        {.key = "engine_threads", .flag = "--engine-threads", .min = 1,
         .max = 256, .surfaces = all, .perPoint = true,
         .report = machine,
         .help = "engine worker threads (clamped to the tile count)",
         .get = [](const Options& o) {
             return std::uint64_t(std::max(1u, o.machine.engineThreads));
         },
         .set = [](Options& o, std::uint64_t v) {
             o.machine.engineThreads = static_cast<unsigned>(v);
         }},
        {.key = "engine_scan", .flag = "--engine-scan",
         .kind = AxisKind::choice, .choices = {{"full"}, {"active"}},
         .surfaces = single, .report = machine,
         .help = "stepping; full is the exhaustive reference scan:",
         FIELD(machine.engineScan)},
        {.key = "engine_barrier", .flag = "--engine-barrier",
         .kind = AxisKind::choice, .choices = {{"tree"}, {"central"}},
         .surfaces = single, .report = machine,
         .help = "cycle-loop barrier; central is std::barrier:",
         FIELD(machine.engineBarrier)},
        {.key = "engine_rebalance", .flag = "--engine-rebalance",
         .kind = AxisKind::flag, .surfaces = single, .report = machine,
         .help = "re-split the shard tile ranges as the active set moves",
         FIELD(machine.engineRebalance)},
        {.key = "scratchpad_bytes", .kind = AxisKind::u64,
         .max = std::uint64_t(1) << 40, .surfaces = onServe,
         .help = "per-tile scratchpad provision (0 = size to usage)",
         FIELD(machine.scratchpadProvisionBytes)},
        {.key = "params", .flag = "--param", .kind = AxisKind::params,
         .surfaces = single, .omitDefault = true,
         .help = "kernel parameter overrides, e.g. damping=0.9,"
                 "iterations=20,epsilon=1e-5; keys a kernel does not "
                 "use are skipped"},
        {.key = "seed", .flag = "--seed", .kind = AxisKind::u64,
         .max = anyU64, .surfaces = single, .report = "dataset",
         .help = "dataset/weight seed", FIELD(seed)},
        {.key = "validate", .flag = "--validate", .kind = AxisKind::flag,
         .surfaces = single,
         .help = "check the output against the sequential reference",
         FIELD(validate)},
        {.key = "deadline_ms", .flag = "--deadline-ms",
         .kind = AxisKind::u64, .max = anyU64,
         .surfaces = onCli | onServe, .identity = false,
         .omitDefault = true,
         .help = "wall-clock budget of the engine run (0 = none); "
                 "expiry ends it with status \"timeout\"",
         FIELD(deadlineMs)},
    };
    return axes;
}

#undef FIELD

// A counter row over one Report member; the kind follows the member's
// width, so the reader refuses a value the member cannot hold.
#define COUNTER(section, key, member, ...)                            \
    {section, key,                                                    \
     sizeof(std::declval<Report&>().member) == 4 ? FieldKind::u32     \
                                                 : FieldKind::u64,    \
     [](const Report& r) { return std::uint64_t(r.member); },         \
     [](Report& r, std::uint64_t v) {                                 \
         r.member = static_cast<decltype(r.member)>(v);               \
     },                                                               \
     nullptr, nullptr, nullptr, __VA_ARGS__}

// A derived row: a double over the report `r`, which the reader
// recomputes from the counters instead of parsing.
#define DERIVED(section, key, expr)                                   \
    {section, key, FieldKind::real, nullptr, nullptr, nullptr,        \
     nullptr, [](const Report& r) { return double(expr); }}

const std::vector<ReportField>&
reportFields()
{
    constexpr const char* dataset = "dataset";
    constexpr const char* machine = "machine";
    constexpr const char* stats = "stats";
    constexpr const char* noc = "stats.noc";
    constexpr const char* engine = "stats.engine";
    constexpr const char* energy = "energy";
    constexpr bool optional = true;
    static const std::vector<ReportField> fields = {
        {.section = "", .kind = FieldKind::axes},
        {.section = dataset, .key = "name", .kind = FieldKind::text,
         .text = [](const Report& r) { return r.datasetName; },
         .setText = [](Report& r, const std::string& v) {
             r.datasetName = v;
         }},
        COUNTER(dataset, "vertices", numVertices),
        COUNTER(dataset, "edges", numEdges),
        {.section = dataset, .kind = FieldKind::axes},
        {.section = machine, .key = "height", .kind = FieldKind::axes},
        {.section = machine, .key = "tiles", .kind = FieldKind::u32,
         .get = [](const Report& r) {
             return std::uint64_t(r.options.machine.numTiles());
         }},
        {.section = machine, .kind = FieldKind::axes},
        COUNTER(stats, "cycles", stats.cycles),
        COUNTER(stats, "epochs", stats.epochs),
        COUNTER(stats, "invocations", stats.invocations),
        COUNTER(stats, "edges_processed", stats.edgesProcessed),
        COUNTER(stats, "pu_busy_cycles", stats.puBusyCycles),
        COUNTER(stats, "pu_ops", stats.puOps),
        COUNTER(stats, "sram_reads", stats.sramReads),
        COUNTER(stats, "sram_writes", stats.sramWrites),
        COUNTER(stats, "tsu_reads", stats.tsuReads),
        COUNTER(stats, "tsu_writes", stats.tsuWrites),
        COUNTER(stats, "local_bypass_msgs", stats.localBypassMsgs),
        DERIVED(stats, "utilization", r.stats.utilization()),
        COUNTER(stats, "scratchpad_bytes_total", stats.scratchpadBytesTotal),
        COUNTER(stats, "scratchpad_bytes_max", stats.scratchpadBytesMax),
        COUNTER(noc, "messages_injected", stats.noc.messagesInjected),
        COUNTER(noc, "messages_delivered", stats.noc.messagesDelivered),
        COUNTER(noc, "flit_hops", stats.noc.flitHops),
        COUNTER(noc, "flit_wire_tiles", stats.noc.flitWireTiles),
        COUNTER(noc, "router_passages", stats.noc.routerPassages),
        COUNTER(noc, "delivery_stalls", stats.noc.deliveryStalls),
        // Simulator execution metrics: how much scan work the engine
        // itself did. These vary with --engine-scan (and are the only
        // stats that may), so the determinism suite normalizes them
        // out before byte-comparing reports.
        COUNTER(engine, "stepped_cycles", stats.engineSteppedCycles,
                optional),
        COUNTER(engine, "noc_stepped_cycles", stats.nocSteppedCycles,
                optional),
        COUNTER(engine, "tile_scans", stats.tileScans, optional),
        COUNTER(engine, "router_scans", stats.routerScans, optional),
        COUNTER(engine, "active_tile_cycles_saved",
                stats.activeTileCyclesSaved, optional),
        COUNTER(engine, "active_router_cycles_saved",
                stats.activeRouterCyclesSaved, optional),
        COUNTER(engine, "rebalances", stats.engineRebalances, optional),
        DERIVED(engine, "tile_scan_occupancy",
                r.stats.tileScanOccupancy()),
        DERIVED(engine, "router_scan_occupancy",
                r.stats.routerScanOccupancy()),
        DERIVED(energy, "logic_j", r.energy.logicJ),
        DERIVED(energy, "memory_j", r.energy.memoryJ),
        DERIVED(energy, "network_j", r.energy.networkJ),
        DERIVED(energy, "total_j", r.energy.totalJ()),
        DERIVED(energy, "logic_pct", r.energy.logicPct()),
        DERIVED(energy, "memory_pct", r.energy.memoryPct()),
        DERIVED(energy, "network_pct", r.energy.networkPct()),
        DERIVED("", "seconds", r.seconds),
        DERIVED("", "memory_bandwidth_bytes_per_sec",
                r.bandwidthBytesPerSec),
        {.section = "", .key = "status", .kind = FieldKind::text,
         .text = [](const Report& r) {
             return std::string(toString(r.stats.status));
         },
         .setText = [](Report& r, const std::string& v) {
             for (const RunStatus status :
                  {RunStatus::timeout, RunStatus::cancelled,
                   RunStatus::deadlock})
                 if (v == toString(status))
                     r.stats.status = status;
         },
         .optional = true},
        {.section = "", .key = "validated", .kind = FieldKind::flag,
         .get = [](const Report& r) { return std::uint64_t(r.validated); },
         .set = [](Report& r, std::uint64_t v) { r.validated = v != 0; },
         .optional = true},
    };
    return fields;
}

#undef COUNTER
#undef DERIVED

std::string
axisText(const Axis& axis, const Options& options)
{
    switch (axis.kind) {
      case AxisKind::flag:
        return axis.get(options) != 0 ? "true" : "false";
      case AxisKind::choice:
        return axis.choices[axis.get(options)][0];
      case AxisKind::kernel:
        return options.kernel->name;
      case AxisKind::dataset:
        return options.dataset;
      case AxisKind::params: {
        std::string params;
        for (const ParamOverride& p : options.params)
            params += (params.empty() ? "" : ",") + p.name + "=" +
                      formatDouble(p.value);
        return params;
      }
      default:
        return std::to_string(axis.get(options));
    }
}

std::string
renderAxis(const Axis& axis, const Options& options)
{
    const std::string text = axisText(axis, options);
    return numeric(axis) || axis.kind == AxisKind::flag
               ? text
               : serve::jsonQuote(text);
}

const Axis*
findAxis(const std::string& name, unsigned surface)
{
    for (const Axis& axis : scenarioAxes()) {
        const char* spelling = surface == onServe ? axis.key : axis.flag;
        if ((axis.surfaces & surface) != 0 && spelling != nullptr &&
            name == spelling)
            return &axis;
    }
    return nullptr;
}

bool
parseAxis(const Axis& axis, const std::string& text,
          const std::string& name, Options& out, std::string& err)
{
    std::uint64_t value = 0;
    switch (axis.kind) {
      case AxisKind::u32:
      case AxisKind::u64:
        if (!parseU64(text, value) || !inRange(axis, value))
            break;
        axis.set(out, value);
        return true;
      case AxisKind::flag:
        if (text != "true" && text != "false")
            break;
        axis.set(out, text == "true");
        return true;
      case AxisKind::choice:
        for (const auto& names : axis.choices) {
            for (const char* choice : names)
                if (toLower(text) == choice) {
                    axis.set(out, value);
                    return true;
                }
            ++value;
        }
        break;
      case AxisKind::kernel:
        if (parseKernel(text, out.kernel))
            return true;
        break;
      case AxisKind::dataset:
        if (!text.empty() && !knownDataset(text))
            break;
        out.dataset = text;
        return true;
      case AxisKind::params:
        if (text.empty() || parseParamOverrides(text, out.params, err))
            return true;
        // The override parser words its errors for the CLI flag.
        if (const std::size_t at = err.find("--param");
            at != std::string::npos)
            err.replace(at, 7, name);
        return false;
    }
    err = axisError(axis, name, text);
    return false;
}

bool
parseAxisJson(const Axis& axis, const serve::JsonValue& value,
              Options& out, std::string& err)
{
    const bool typed = axis.kind == AxisKind::flag ? value.isBool()
                       : numeric(axis)             ? value.isNumber()
                                                   : value.isString();
    const std::string text =
        value.isBool()     ? (value.boolean ? "true" : "false")
        : value.isNumber() ? value.raw
        : value.isString() ? value.text
                           : "null";
    if (typed)
        return parseAxis(axis, text, axis.key, out, err);
    err = axisError(axis, axis.key,
                    value.isString() ? serve::jsonQuote(text) : text);
    return false;
}

std::string
renderAxes(const Options& options, bool identityOnly)
{
    static const Options defaults;
    std::string out;
    for (const Axis& axis : scenarioAxes()) {
        const std::string value = renderAxis(axis, options);
        if ((identityOnly && !axis.identity) ||
            (axis.omitDefault && value == renderAxis(axis, defaults)))
            continue;
        out += ",\"" + std::string(axis.key) + "\":" + value;
    }
    return out;
}

std::string
normalizeScenario(Options& options)
{
    MachineConfig& m = options.machine;
    if (m.topology != NocTopology::torusRuche)
        m.rucheFactor = 0;
    else if (m.rucheFactor < 2)
        m.rucheFactor = 2; // the shortest ruche link
    // The engine shards one contiguous tile range per worker, so
    // threads beyond the tile count could never receive a shard.
    const std::uint32_t tiles = m.numTiles();
    if (m.engineThreads <= tiles)
        return "";
    const std::string note =
        "--engine-threads " + std::to_string(m.engineThreads) +
        " exceeds the " + std::to_string(m.width) + "x" +
        std::to_string(m.height) + " grid's " + std::to_string(tiles) +
        " shards; clamped to " + std::to_string(tiles);
    m.engineThreads = tiles;
    return note;
}

std::string
scenarioError(const Options& options)
{
    const MachineConfig& m = options.machine;
    const std::string name = options.dataset.empty()
                                 ? "rmat" + std::to_string(options.scale)
                                 : options.dataset;
    const std::string drop = "drop @" +
                             std::to_string(options.datasetScale) +
                             " from " + name;
    if (options.datasetScale != 0 && isFileDataset(name))
        return "file: datasets are fixed size; " + drop;
    if (options.datasetScale != 0 && toLower(name).rfind("rmat", 0) == 0)
        return "rmatN datasets carry their scale in the name; " + drop;
    if (m.topology == NocTopology::torusRuche && m.width > 1 &&
        m.rucheFactor >= m.width)
        return "ruche_factor " + std::to_string(m.rucheFactor) +
               " must be below the grid width " +
               std::to_string(m.width) + " on torus-ruche";
    return "";
}

std::string
axisHelp(unsigned surfaces)
{
    static const Options defaults;
    const bool json = surfaces == onServe;
    const bool sweep = (surfaces & (onSweep | onSweepList)) != 0;
    std::string out;
    for (const Axis& axis : scenarioAxes()) {
        if ((axis.surfaces & surfaces) == 0)
            continue;
        const char* metavar = axis.kind == AxisKind::params ? "K=V,..."
                              : numeric(axis)               ? "N"
                              : axis.kind != AxisKind::flag ? "NAME"
                              : json                        ? "true|false"
                                                            : "";
        std::string left = std::string("  ") +
                           (json ? axis.key : axis.flag);
        if (*metavar != '\0')
            left += std::string(" ") + metavar +
                    ((axis.surfaces & surfaces & onSweepList) != 0
                         ? ",..."
                         : "");

        const bool own = sweep && axis.sweepHelp != nullptr;
        const std::string def = axisText(axis, defaults);
        std::string text = own ? axis.sweepHelp : axis.help;
        for (const std::string& part :
             {valueList(axis), rangeText(axis),
              own || def.empty() || def == "0" || def == "false"
                  ? std::string()
                  : "(default " + def + ")"})
            if (!part.empty())
                text += (text.empty() ? "" : " ") + part;
        out += helpEntry(left, text);
    }
    return out;
}

} // namespace cli
} // namespace dalorex
