#include "cli/scenario.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

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

/** The axis's value in `options` as a JSON value ("16", "\"torus\""). */
std::string
renderAxis(const Axis& axis, const Options& options)
{
    switch (axis.kind) {
      case AxisKind::flag:
        return axis.get(options) != 0 ? "true" : "false";
      case AxisKind::choice:
        return serve::jsonQuote(axis.choices[axis.get(options)][0]);
      case AxisKind::kernel:
        return serve::jsonQuote(options.kernel->name);
      case AxisKind::dataset:
        return serve::jsonQuote(options.dataset);
      case AxisKind::params: {
        std::string params;
        for (const ParamOverride& p : options.params)
            params += (params.empty() ? "" : ",") + p.name + "=" +
                      formatDouble(p.value);
        return serve::jsonQuote(params);
      }
      default:
        return std::to_string(axis.get(options));
    }
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
    static const std::vector<Axis> axes = {
        {.key = "kernel", .flag = "--kernel", .kind = AxisKind::kernel,
         .surfaces = all,
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
         .surfaces = onCli | onServe, .help = "grid width",
         FIELD(machine.width)},
        {.key = "height", .flag = "--height", .min = 1, .max = 1024,
         .surfaces = onCli | onServe, .help = "grid height",
         FIELD(machine.height)},
        {.key = "topology", .flag = "--topology", .kind = AxisKind::choice,
         .choices = {{"mesh"}, {"torus"}, {"torus-ruche", "ruche"}},
         .surfaces = all, .help = "NoC:", FIELD(machine.topology)},
        {.key = "ruche_factor", .flag = "--ruche-factor", .min = 2,
         .max = 64, .zeroUnsets = true, .surfaces = single,
         .help = "ruche hop distance on torus-ruche, below the grid "
                 "width (0 = 2):",
         FIELD(machine.rucheFactor)},
        {.key = "policy", .flag = "--policy", .kind = AxisKind::choice,
         .choices = {{"round-robin", "rr"}, {"traffic-aware", "ta"}},
         .surfaces = all, .help = "TSU scheduling:",
         FIELD(machine.policy)},
        {.key = "distribution", .flag = "--distribution",
         .kind = AxisKind::choice,
         .choices = {{"low-order", "low"}, {"high-order", "high"}},
         .surfaces = all, .help = "vertex placement:",
         FIELD(machine.distribution)},
        {.key = "barrier", .flag = "--barrier", .kind = AxisKind::flag,
         .surfaces = onCli | onServe,
         .help = "force epoch-synchronized execution",
         FIELD(machine.barrier)},
        {.key = "invoke_overhead", .flag = "--invoke-overhead",
         .max = 1'000'000, .surfaces = single,
         .help = "extra cycles per task invocation",
         FIELD(machine.invokeOverhead)},
        {.key = "max_cycles", .flag = "--max-cycles", .kind = AxisKind::u64,
         .max = anyU64, .surfaces = onCli | onServe,
         .help = "hard cycle limit (0 = none); an overrun ends the run "
                 "with status \"timeout\"",
         FIELD(machine.maxCycles)},
        // MachineConfig runs 0 engine threads as 1; render them so.
        {.key = "engine_threads", .flag = "--engine-threads", .min = 1,
         .max = 256, .surfaces = all,
         .help = "engine worker threads (clamped to the tile count)",
         .get = [](const Options& o) {
             return std::uint64_t(std::max(1u, o.machine.engineThreads));
         },
         .set = [](Options& o, std::uint64_t v) {
             o.machine.engineThreads = static_cast<unsigned>(v);
         }},
        {.key = "engine_scan", .flag = "--engine-scan",
         .kind = AxisKind::choice, .choices = {{"full"}, {"active"}},
         .surfaces = single,
         .help = "stepping; full is the exhaustive reference scan:",
         FIELD(machine.engineScan)},
        {.key = "engine_barrier", .flag = "--engine-barrier",
         .kind = AxisKind::choice, .choices = {{"tree"}, {"central"}},
         .surfaces = single,
         .help = "cycle-loop barrier; central is std::barrier:",
         FIELD(machine.engineBarrier)},
        {.key = "engine_rebalance", .flag = "--engine-rebalance",
         .kind = AxisKind::flag, .surfaces = single,
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
         .max = anyU64, .surfaces = single,
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
        std::string def = renderAxis(axis, defaults);
        if (def.front() == '"')
            def = def.substr(1, def.size() - 2);
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
