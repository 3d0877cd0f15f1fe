/**
 * @file
 * Declarative scenario grids for the sweep orchestrator.
 *
 * A Plan holds the plan-wide scenario values and one value list per
 * per-point axis (kernels, datasets, machine shapes, topology/policy/
 * barrier knobs); expansion takes the cartesian product into concrete
 * cli::Options, one per point, in a deterministic kernel-major
 * (axis-table) order. All user errors — an empty axis,
 * an unknown dataset name, a speedup baseline that is not on the grid
 * axis — surface as a one-line diagnostic at expansion time, before
 * any worker thread runs, so the parallel phase only ever sees
 * pre-validated scenarios.
 */

#ifndef DALOREX_SWEEP_PLAN_HH
#define DALOREX_SWEEP_PLAN_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cli/cli.hh"

namespace dalorex
{
namespace sweep
{

/** One machine shape on the grid axis ("8x8"). */
struct GridShape
{
    std::uint32_t width = 0;
    std::uint32_t height = 0;

    std::uint32_t tiles() const { return width * height; }
    bool operator==(const GridShape&) const = default;
};

/** Parse "WxH" (e.g. "16x16"), each side a width/height axis value;
 *  false on malformed or out-of-range text, worded into `err`. */
bool parseGridShape(const std::string& text, GridShape& out,
                    std::string* err = nullptr);

/** Render a shape back as "WxH". */
std::string toString(const GridShape& shape);

/** One dataset axis point: a named dataset or an RMAT scale. */
struct DatasetSpec
{
    /** Named dataset ("amazon", "rmat14", ...); empty = RMAT at
     *  `scale`. */
    std::string name;
    /** Vertex scale override for named stand-ins (0 = native size);
     *  the RMAT scale when `name` is empty. */
    unsigned scale = 0;

    bool operator==(const DatasetSpec&) const = default;
};

/**
 * A declarative scenario grid (Katana's idiom: one Plan carries the
 * algorithm and all its parameters). Every point starts as a copy of
 * `base`, then takes one value of each per-point dimension: the
 * kernel, the dataset, the grid shape and the other axes the axis
 * table marks perPoint. Each dimension is deduplicated
 * order-preservingly, so repeated points collapse instead of
 * re-running.
 */
struct Plan
{
    /** The plan-wide axis values (seed, params, ruche factor, engine
     *  knobs, ...) and the value of each per-point axis not listed in
     *  `axes`. */
    cli::Options base;
    /** Per-point value lists keyed by axis-table key ("kernel",
     *  "topology", ...), each value spelled as the axis parses it
     *  ("bfs", "torus-ruche", "4"). A listed axis must be non-empty. */
    std::map<std::string, std::vector<std::string>> axes;
    /** The dataset dimension (never empty at expansion). */
    std::vector<DatasetSpec> datasets;
    /** The grid dimension (never empty at expansion). */
    std::vector<GridShape> grids;

    /**
     * Grid shape of the speedup baseline row within each scenario
     * group; {0, 0} means the first shape on the grid axis.
     */
    GridShape baseline{};
};

/** Outcome of expanding a Plan: scenario points, or a diagnostic. */
struct ExpandResult
{
    std::vector<cli::Options> points; //!< kernel-major order
    GridShape baseline{};             //!< resolved baseline shape
    bool ok = true;
    std::string error; //!< one line, set when !ok
    /** The first engine-threads clamp note of the points ("" = none). */
    std::string note;
};

/**
 * Validate `plan` and expand it into concrete scenario options.
 * Never crashes on malformed plans: empty axes, out-of-range shapes,
 * unknown dataset names and a baseline missing from the grid axis all
 * yield ok == false with a one-line error.
 */
ExpandResult expand(const Plan& plan);

} // namespace sweep
} // namespace dalorex

#endif // DALOREX_SWEEP_PLAN_HH
