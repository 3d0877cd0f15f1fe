/**
 * @file
 * The scenario-axis table: every knob of one scenario declared once.
 *
 * A row gives an axis's JSON key and command-line flag, its value
 * kind and range, the front ends that expose it, whether it is
 * scenario identity or run control, and its --help line. The front
 * ends read the rows instead of keeping copies: cli::parseArgs, the
 * axis flags of `dalorex sweep` and the run keys of a `dalorex serve`
 * request all parse through parseAxis(), so a value is refused with
 * the same text everywhere (spelled `--width` on the command line,
 * `width` in JSON); renderRunRequest and pointHash render the rows in
 * table order; and the scenario sections of the three --help texts
 * come from axisHelp(). An axis's default is the member initializer
 * of cli::Options (or MachineConfig). Adding an axis is one row in
 * scenario.cc plus the field it sets: `perPoint` makes a sweep plan
 * list its values per point (sweep::Plan::axes, crossed by expand and
 * told apart by the aggregate's groups), and `report` echoes it in a
 * section of the JSON report.
 *
 * The report-field table below does the same for the JSON report:
 * cli::renderJson writes it and serve::parseReportPayload (`--via`,
 * journal replay) reads it back, row by row, so a new counter is one
 * row there plus its RunStats member. A sweep row's columns are the
 * column table in sweep/aggregate.cc, walked by toTable and toJsonl.
 */

#ifndef DALOREX_CLI_SCENARIO_HH
#define DALOREX_CLI_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cli/cli.hh"
#include "serve/json.hh"

namespace dalorex
{
namespace cli
{

/** How an axis's value is spelled and parsed. */
enum class AxisKind
{
    u32,     //!< decimal integer in [min, max]
    u64,     //!< the same, 64-bit
    flag,    //!< presence flag on the command line, true/false in JSON
    choice,  //!< one of `choices`, case-insensitive
    kernel,  //!< a registered kernel name or alias
    dataset, //!< a dataset name (graph/datasets.hh); "" = RMAT at scale
    params,  //!< kernel parameter overrides "K=V,..." ("" = none)
};

/** The front ends an axis is exposed on (bit set). */
enum AxisSurface : unsigned
{
    onCli = 1u << 0,       //!< `dalorex --flag VALUE`
    onSweep = 1u << 1,     //!< `dalorex sweep --flag VALUE`, one value
    onSweepList = 1u << 2, //!< `dalorex sweep --flag A,B,...`
    onServe = 1u << 3,     //!< a key of a `dalorex serve` run request
};

/** One scenario axis. */
struct Axis
{
    const char* key;            //!< JSON key ("ruche_factor")
    const char* flag = nullptr; //!< command-line flag; nullptr = none
    AxisKind kind = AxisKind::u32;
    std::uint64_t min = 0; //!< inclusive range of u32/u64 values
    std::uint64_t max = 0;
    /** 0 is accepted outside [min, max] and means "unset". */
    bool zeroUnsets = false;
    /** choice: one entry per enum value, in enum order; the first name
     *  is the canonical one (the enum's toString), the rest aliases. */
    std::vector<std::vector<const char*>> choices{};
    unsigned surfaces = 0; //!< AxisSurface bits
    /** false: run control, left out of pointHash (deadline_ms). */
    bool identity = true;
    /** Left out of a rendered request while it holds its default. */
    bool omitDefault = false;
    /** A sweep plan lists its values per point (sweep::Plan::axes);
     *  false: one plan-wide value (sweep::Plan::base). The dataset and
     *  grid axes vary per point through Plan::datasets / Plan::grids. */
    bool perPoint = false;
    /** The JSON-report section that echoes the value ("" = top
     *  level); nullptr: not in the report. */
    const char* report = nullptr;
    const char* help = "";           //!< --help prose
    const char* sweepHelp = nullptr; //!< sweep's own prose, if any
    /** Numeric view of the field (u32/u64/flag/choice). */
    std::uint64_t (*get)(const Options&) = nullptr;
    void (*set)(Options&, std::uint64_t) = nullptr;
};

/** Every scenario axis, in rendered-request order. */
const std::vector<Axis>& scenarioAxes();

/** The row exposed on `surface` under this name: its JSON key for
 *  onServe, else its flag. nullptr when there is none. */
const Axis* findAxis(const std::string& name, unsigned surface);

/**
 * Parse `text` as a value of `axis` into `out` (params append). A bad
 * value returns false with a one-line error that names the axis as
 * `name`, the calling surface's spelling ("--width" or "width").
 */
bool parseAxis(const Axis& axis, const std::string& text,
               const std::string& name, Options& out, std::string& err);

/** The same from a JSON request member: numeric kinds take a number,
 *  flags a boolean and the rest a string. */
bool parseAxisJson(const Axis& axis, const serve::JsonValue& value,
                   Options& out, std::string& err);

/** The axis's value in `options` as `parseAxis` reads it ("torus",
 *  "16", "true"). */
std::string axisText(const Axis& axis, const Options& options);

/** The same as a JSON value ("16", "\"torus\""). */
std::string renderAxis(const Axis& axis, const Options& options);

/** `,"key":value` for every row in table order; identityOnly leaves
 *  out the run-control rows. */
std::string renderAxes(const Options& options, bool identityOnly);

/**
 * The cross-axis rules every surface applies once all axes are read:
 * the ruche factor applies to torus-ruche only (0 there means 2), and
 * engine threads are clamped to the tile count. Returns a one-line
 * note when the clamp lowered the requested threads.
 */
std::string normalizeScenario(Options& options);

/**
 * The cross-axis refusals, checked before a Machine is built: a
 * dataset_scale its dataset would ignore (rmatN, RMAT by scale,
 * file:), or a ruche factor not below the grid width. "" when the
 * scenario can be built.
 */
std::string scenarioError(const Options& options);

/** The --help lines of every axis exposed on `surfaces`: flags for
 *  the command lines (list axes show "A,..."), keys for onServe. */
std::string axisHelp(unsigned surfaces);

/** How a report field is written and read back. */
enum class FieldKind
{
    u64,  //!< decimal counter
    u32,  //!< the same over a 32-bit member: wider values are refused
    text, //!< JSON string
    flag, //!< true/false
    real, //!< derived double, recomputed by the reader
    /** The axes whose `report` is this row's section, from the one
     *  after the section's previous axes row through the axis named
     *  `key` ("" = to the end). */
    axes,
};

/** One member of the JSON report, in rendered order. */
struct ReportField
{
    /** "" = top level, else the dotted path of its object
     *  ("stats.noc"). */
    const char* section;
    const char* key = "";
    FieldKind kind = FieldKind::u64;
    /** u64/u32/flag value; `set` stores a parsed one (nullptr:
     *  derived, or taken from the submitted options by the reader). */
    std::uint64_t (*get)(const Report&) = nullptr;
    void (*set)(Report&, std::uint64_t) = nullptr;
    std::string (*text)(const Report&) = nullptr;
    void (*setText)(Report&, const std::string&) = nullptr;
    double (*real)(const Report&) = nullptr;
    /** May be missing from a payload: older binaries wrote no engine
     *  counters and no status. */
    bool optional = false;
};

/** Every report field, in rendered order. */
const std::vector<ReportField>& reportFields();

} // namespace cli
} // namespace dalorex

#endif // DALOREX_CLI_SCENARIO_HH
