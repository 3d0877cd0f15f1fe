#include "apps/kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "apps/graph_app.hh"
#include "common/logging.hh"
#include "common/text.hh"

namespace dalorex
{

VertexId
pickRoot(const Csr& graph)
{
    for (VertexId v = 0; v < graph.numVertices; ++v) {
        if (graph.degree(v) > 0)
            return v;
    }
    panic("graph has no edges: no usable search root");
}

KernelSetup
makeKernelSetup(const KernelInfo& kernel, const Csr& base,
                std::uint64_t seed)
{
    KernelSetup setup;
    setup.kernel = &kernel;
    setup.damping = kernel.defaults.damping;
    setup.iterations = kernel.defaults.iterations;
    setup.epsilon = kernel.defaults.epsilon;

    const KernelTraits& traits = kernel.traits;
    setup.graph = traits.symmetrize ? symmetrize(base) : base;

    // One RNG stream in a fixed trait order (weights, then x) keeps
    // adapted datasets bit-identical to the pre-registry factory.
    // Graphs loaded from converted files may carry real edge weights;
    // those are kept, and synthetic weights are drawn only for
    // unweighted inputs (every generated dataset is unweighted, so
    // the established stream is unchanged).
    Rng rng(seed);
    if (traits.needsWeights && !setup.graph.weighted())
        addRandomWeights(setup.graph, rng, traits.weightMin,
                         traits.weightMax);
    if (traits.needsInputVector) {
        setup.x.resize(setup.graph.numVertices);
        for (auto& xi : setup.x)
            xi = static_cast<Word>(rng.range(0, 255));
    }
    if (traits.needsRoot)
        setup.root = pickRoot(setup.graph);
    return setup;
}

KernelSetup
makeKernelSetup(const std::string& kernel, const Csr& base,
                std::uint64_t seed)
{
    return makeKernelSetup(*kernelOrDie(kernel), base, seed);
}

bool
parseParamOverrides(const std::string& text,
                    std::vector<ParamOverride>& out, std::string& err)
{
    for (const std::string& item : splitCommas(text)) {
        const std::size_t eq = item.find('=');
        if (item.empty() || eq == std::string::npos || eq == 0 ||
            eq + 1 == item.size()) {
            err = "--param wants NAME=VALUE[,NAME=VALUE...], got: " +
                  (item.empty() ? text : item);
            return false;
        }
        ParamOverride param;
        param.name = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        char* end = nullptr;
        param.value = std::strtod(value.c_str(), &end);
        if (end != value.c_str() + value.size()) {
            err = "--param " + param.name +
                  " wants a number, got: " + value;
            return false;
        }
        if (param.name == "damping") {
            if (!(param.value > 0.0 && param.value < 1.0)) {
                err = "--param damping must be in (0, 1), got: " +
                      value;
                return false;
            }
        } else if (param.name == "iterations") {
            if (param.value < 1.0 || param.value > 1000.0 ||
                param.value != std::floor(param.value)) {
                err = "--param iterations must be an integer in "
                      "[1, 1000], got: " + value;
                return false;
            }
        } else if (param.name == "epsilon") {
            if (!(param.value >= 0.0 && param.value < 1.0)) {
                err = "--param epsilon must be in [0, 1) "
                      "(0 disables convergence), got: " + value;
                return false;
            }
        } else {
            err = "unknown --param key: " + param.name +
                  " (damping|iterations|epsilon)";
            return false;
        }
        out.push_back(std::move(param));
    }
    return true;
}

void
applyParamOverrides(KernelSetup& setup,
                    const std::vector<ParamOverride>& params)
{
    panic_if(setup.kernel == nullptr, "KernelSetup has no kernel");
    const KernelDefaults& defaults = setup.kernel->defaults;
    for (const ParamOverride& param : params) {
        if (param.name == "damping" && defaults.usesDamping)
            setup.damping = param.value;
        else if (param.name == "iterations" && defaults.usesIterations)
            setup.iterations = static_cast<unsigned>(param.value);
        else if (param.name == "epsilon" && defaults.usesEpsilon)
            setup.epsilon = param.value;
        // Keys the kernel declares unused are skipped so one --param
        // list can span a multi-kernel sweep.
    }
}

std::unique_ptr<GraphAppBase>
KernelSetup::makeApp() const
{
    panic_if(kernel == nullptr, "KernelSetup has no kernel");
    return kernel->factory(*this);
}

std::vector<Word>
KernelSetup::referenceWords() const
{
    panic_if(kernel == nullptr, "KernelSetup has no kernel");
    panic_if(!kernel->referenceWords, kernel->display,
             " has a float-valued reference; use referenceFloats()");
    return kernel->referenceWords(*this);
}

std::vector<double>
KernelSetup::referenceFloats() const
{
    panic_if(kernel == nullptr, "KernelSetup has no kernel");
    panic_if(!kernel->referenceFloats, kernel->display,
             " has a word-valued reference; use referenceWords()");
    return kernel->referenceFloats(*this);
}

namespace
{

ValidationResult
defaultValidateWords(const KernelSetup& setup,
                     const std::vector<Word>& got)
{
    const std::vector<Word> want = setup.referenceWords();
    if (got.size() != want.size()) {
        std::ostringstream what;
        what << setup.kernel->display << " output has " << got.size()
             << " values, reference has " << want.size();
        return ValidationResult::fail(0, what.str());
    }
    for (std::size_t v = 0; v < got.size(); ++v) {
        if (got[v] != want[v]) {
            std::ostringstream what;
            what << setup.kernel->display
                 << " output does not match the sequential reference"
                 << " at vertex " << v << ": got " << got[v]
                 << ", want " << want[v];
            return ValidationResult::fail(v, what.str());
        }
    }
    return ValidationResult::pass();
}

} // namespace

ValidationResult
validateFloatsWithSlack(const KernelSetup& setup,
                        const std::vector<double>& got, double slack)
{
    const std::vector<double> want = setup.referenceFloats();
    if (got.size() != want.size()) {
        std::ostringstream what;
        what << setup.kernel->display << " output has " << got.size()
             << " values, reference has " << want.size();
        return ValidationResult::fail(0, what.str());
    }
    for (std::size_t v = 0; v < got.size(); ++v) {
        const double tol = std::max(1e-9, 1e-3 * want[v]) + slack;
        if (std::abs(got[v] - want[v]) > tol) {
            std::ostringstream what;
            what << setup.kernel->display << " mismatch at vertex "
                 << v << ": " << got[v] << " vs " << want[v];
            return ValidationResult::fail(v, what.str());
        }
    }
    return ValidationResult::pass();
}

ValidationResult
validateWords(const KernelSetup& setup, const std::vector<Word>& got)
{
    panic_if(setup.kernel == nullptr, "KernelSetup has no kernel");
    if (setup.kernel->validateWords)
        return setup.kernel->validateWords(setup, got);
    return defaultValidateWords(setup, got);
}

ValidationResult
validateFloats(const KernelSetup& setup,
               const std::vector<double>& got)
{
    panic_if(setup.kernel == nullptr, "KernelSetup has no kernel");
    if (setup.kernel->validateFloats)
        return setup.kernel->validateFloats(setup, got);
    return validateFloatsWithSlack(setup, got, 0.0);
}

ValidationResult
validateRun(const KernelSetup& setup, GraphAppBase& app,
            Machine& machine)
{
    if (setup.floatResult())
        return validateFloats(setup, app.gatherFloats(machine));
    return validateWords(setup, app.gatherValues(machine));
}

} // namespace dalorex
