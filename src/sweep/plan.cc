#include "sweep/plan.hh"

#include <algorithm>

#include "cli/scenario.hh"

namespace dalorex
{
namespace sweep
{
namespace
{

/** Order-preserving dedup, so duplicate axis points collapse. */
template <typename T>
std::vector<T>
unique(const std::vector<T>& xs)
{
    std::vector<T> out;
    for (const T& x : xs)
        if (std::find(out.begin(), out.end(), x) == out.end())
            out.push_back(x);
    return out;
}

ExpandResult
fail(const std::string& message)
{
    ExpandResult result;
    result.ok = false;
    result.error = message;
    return result;
}

} // namespace

bool
parseGridShape(const std::string& text, GridShape& out, std::string* err)
{
    // Each side is a value of the width/height scenario axes.
    const std::size_t x = text.find('x');
    cli::Options v;
    std::string error = "wants WxH (e.g. 16x16), got " + text;
    const bool ok =
        x != std::string::npos &&
        cli::parseAxis(*cli::findAxis("width", cli::onServe),
                       text.substr(0, x), "width", v, error) &&
        cli::parseAxis(*cli::findAxis("height", cli::onServe),
                       text.substr(x + 1), "height", v, error);
    if (ok)
        out = {v.machine.width, v.machine.height};
    else if (err != nullptr)
        *err = error;
    return ok;
}

std::string
toString(const GridShape& shape)
{
    return std::to_string(shape.width) + "x" +
           std::to_string(shape.height);
}

ExpandResult
expand(const Plan& plan)
{
    // Values are checked by the scenario-axis table, as on every
    // surface.
    std::string error;
    auto set = [&error](cli::Options& o, const char* key,
                        const std::string& text) {
        if (error.empty())
            cli::parseAxis(*cli::findAxis(key, cli::onServe), text, key,
                           o, error);
    };
    auto setDataset = [&set](cli::Options& o, const DatasetSpec& ds) {
        if (ds.name.empty()) {
            set(o, "scale", std::to_string(ds.scale));
        } else {
            set(o, "dataset", ds.name);
            set(o, "dataset_scale", std::to_string(ds.scale));
        }
    };
    for (const auto& [key, values] : plan.axes) {
        const cli::Axis* axis = cli::findAxis(key, cli::onServe);
        if (axis == nullptr || !axis->perPoint)
            return fail(key + " is not a per-point axis");
    }
    for (const DatasetSpec& ds : plan.datasets) {
        cli::Options probe;
        setDataset(probe, ds);
        if (error.empty())
            error = cli::scenarioError(probe);
    }
    if (!error.empty())
        return fail(error);

    // Cross the points so far with one dimension's values; the first
    // dimension varies slowest, so points come out kernel-major.
    std::vector<cli::Options> points = {plan.base};
    auto cross = [&points](const auto& values, const auto& apply) {
        const auto distinct = unique(values);
        std::vector<cli::Options> crossed;
        crossed.reserve(points.size() * distinct.size());
        for (const cli::Options& point : points)
            for (const auto& value : distinct) {
                crossed.push_back(point);
                apply(crossed.back(), value);
            }
        points = std::move(crossed);
    };
    for (const cli::Axis& axis : cli::scenarioAxes()) {
        const std::string key = axis.key;
        const auto list = plan.axes.find(key);
        if (key == "dataset") {
            cross(plan.datasets, setDataset);
        } else if (key == "width") {
            cross(plan.grids, [&set](cli::Options& o, const GridShape& g) {
                set(o, "width", std::to_string(g.width));
                set(o, "height", std::to_string(g.height));
            });
        } else if (list != plan.axes.end()) {
            cross(list->second,
                  [&](cli::Options& o, const std::string& text) {
                      set(o, axis.key, text);
                  });
        } else {
            continue;
        }
        if (points.empty())
            return fail((key == "width" ? "grid" : key) +
                        " axis is empty");
    }
    if (!error.empty())
        return fail(error);

    ExpandResult result;
    result.baseline = plan.baseline.tiles() > 0 ? plan.baseline
                                                : plan.grids.front();
    if (std::find(plan.grids.begin(), plan.grids.end(),
                  result.baseline) == plan.grids.end())
        return fail("baseline grid " + toString(result.baseline) +
                    " is not on the grid axis");
    for (cli::Options& point : points) {
        const std::string note = cli::normalizeScenario(point);
        if (result.note.empty())
            result.note = note;
    }
    result.points = std::move(points);
    return result;
}

} // namespace sweep
} // namespace dalorex
