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
    const std::vector<const KernelInfo*> kernels =
        unique(plan.kernels);
    const std::vector<DatasetSpec> datasets = unique(plan.datasets);
    const std::vector<GridShape> grids = unique(plan.grids);
    const std::vector<NocTopology> topologies =
        unique(plan.topologies);
    const std::vector<SchedPolicy> policies = unique(plan.policies);
    const std::vector<Distribution> distributions =
        unique(plan.distributions);
    const std::vector<bool> barriers = unique(plan.barriers);
    const std::vector<unsigned> engine_threads =
        unique(plan.engineThreads);

    if (kernels.empty())
        return fail("kernel axis is empty");
    for (const KernelInfo* kernel : kernels) {
        if (kernel == nullptr)
            return fail("kernel axis contains a null kernel handle");
    }
    if (datasets.empty())
        return fail("dataset axis is empty");
    if (grids.empty())
        return fail("grid axis is empty");
    if (topologies.empty())
        return fail("topology axis is empty");
    if (policies.empty())
        return fail("policy axis is empty");
    if (distributions.empty())
        return fail("distribution axis is empty");
    if (barriers.empty())
        return fail("barrier axis is empty");
    if (engine_threads.empty())
        return fail("engine-threads axis is empty");
    // Values are checked by the scenario-axis table, as on every
    // surface.
    std::string error;
    cli::Options probe;
    auto check = [&](const char* key, const std::string& text) {
        if (error.empty())
            cli::parseAxis(*cli::findAxis(key, cli::onServe), text, key,
                           probe, error);
    };
    for (const unsigned threads : engine_threads)
        check("engine_threads", std::to_string(threads));
    for (const GridShape& grid : grids) {
        check("width", std::to_string(grid.width));
        check("height", std::to_string(grid.height));
    }
    for (const DatasetSpec& ds : datasets) {
        probe = cli::Options{};
        if (ds.name.empty()) {
            check("scale", std::to_string(ds.scale));
        } else {
            check("dataset", ds.name);
            check("dataset_scale", std::to_string(ds.scale));
        }
        if (error.empty())
            error = cli::scenarioError(probe);
    }
    if (!error.empty())
        return fail(error);

    ExpandResult result;
    result.baseline =
        plan.baseline.tiles() > 0 ? plan.baseline : grids.front();
    if (std::find(grids.begin(), grids.end(), result.baseline) ==
        grids.end())
        return fail("baseline grid " + toString(result.baseline) +
                    " is not on the grid axis");

    for (const KernelInfo* kernel : kernels)
      for (const DatasetSpec& ds : datasets)
        for (const GridShape& grid : grids)
          for (const NocTopology topology : topologies)
            for (const SchedPolicy policy : policies)
              for (const Distribution distribution : distributions)
                for (const bool barrier : barriers)
                  for (const unsigned threads : engine_threads) {
                      cli::Options o;
                      o.kernel = kernel;
                      o.dataset = ds.name;
                      if (ds.name.empty())
                          o.scale = ds.scale;
                      else
                          o.datasetScale = ds.scale;
                      o.seed = plan.seed;
                      o.validate = plan.validate;
                      o.params = plan.params;
                      o.machine.width = grid.width;
                      o.machine.height = grid.height;
                      o.machine.topology = topology;
                      o.machine.rucheFactor = plan.rucheFactor;
                      o.machine.policy = policy;
                      o.machine.distribution = distribution;
                      o.machine.barrier = barrier;
                      o.machine.engineThreads = threads;
                      o.machine.engineScan = plan.engineScan;
                      o.machine.engineBarrier = plan.engineBarrier;
                      o.machine.engineRebalance =
                          plan.engineRebalance;
                      o.machine.invokeOverhead = plan.invokeOverhead;
                      o.machine.scratchpadProvisionBytes =
                          plan.scratchpadProvisionBytes;
                      const std::string note =
                          cli::normalizeScenario(o);
                      if (result.note.empty())
                          result.note = note;
                      result.points.push_back(std::move(o));
                  }
    return result;
}

} // namespace sweep
} // namespace dalorex
