/**
 * @file
 * Tests of the kernel registry: every registered kernel round-trips
 * name/alias parsing, renders in --list-kernels, expands under
 * `--kernel all`, and runs + validates on a tiny RMAT graph across
 * the topology x policy matrix.
 *
 * The suite also proves the API is open the hard way: it registers
 * two kernels of its own from this translation unit — one healthy,
 * one whose validator always rejects — and drives them through the
 * real CLI and sweep entry points with zero edits anywhere else. The
 * failing kernel exercises the row-level error path: its sweep row
 * fails with a one-line diagnostic while every other row survives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "apps/graph_app.hh"
#include "common/text.hh"
#include "apps/histogram.hh"
#include "apps/kernels.hh"
#include "cli/cli.hh"
#include "graph/rmat.hh"
#include "sim/machine.hh"
#include "sweep/sweep_cli.hh"

namespace dalorex
{
namespace
{

// ---- self-registration from outside src/apps/ -------------------

KernelInfo
regtestKernelInfo()
{
    KernelInfo info;
    info.name = "regtest";
    info.display = "RegTest";
    info.aliases = {"registry-test"};
    info.summary = "test-only clone of the degree histogram, "
                   "registered from tests/registry_test.cc";
    info.tags = {"regtest"};
    info.order = 900;
    info.factory = [](const KernelSetup& setup) {
        return std::make_unique<DegreeHistogramApp>(setup.graph);
    };
    info.referenceWords = [](const KernelSetup& setup) {
        return referenceDegreeHistogram(setup.graph);
    };
    return info;
}

KernelInfo
regtestBadKernelInfo()
{
    KernelInfo info = regtestKernelInfo();
    info.name = "regtest-bad";
    info.display = "RegTestBad";
    info.aliases = {};
    info.summary = "test-only kernel whose validator always rejects";
    info.order = 901;
    info.validateWords = [](const KernelSetup&,
                            const std::vector<Word>&) {
        return ValidationResult::fail(0, "deliberate test mismatch");
    };
    return info;
}

DALOREX_REGISTER_KERNEL(regtestKernelInfo)
DALOREX_REGISTER_KERNEL(regtestBadKernelInfo)

/** The kernels shipped by the library (excludes this file's two). */
std::vector<const KernelInfo*>
shippedKernels()
{
    std::vector<const KernelInfo*> out;
    for (const KernelInfo* kernel : allKernels())
        if (!kernel->hasTag("regtest"))
            out.push_back(kernel);
    return out;
}

// ---- registry contents ------------------------------------------

TEST(Registry, ShipsTheNineKernelsInPaperOrder)
{
    std::vector<std::string> names;
    for (const KernelInfo* kernel : shippedKernels())
        names.push_back(kernel->name);
    EXPECT_EQ(names,
              (std::vector<std::string>{"bfs", "wcc", "pagerank",
                                        "sssp", "sssp-delta", "spmv",
                                        "kcore", "histogram",
                                        "triangle"}));
}

TEST(Registry, TagSetsMatchThePaperFigures)
{
    std::vector<std::string> fig5;
    for (const KernelInfo* kernel : fig5Kernels())
        fig5.push_back(kernel->name);
    EXPECT_EQ(fig5, (std::vector<std::string>{"bfs", "wcc",
                                              "pagerank", "sssp"}));

    std::vector<std::string> paper;
    for (const KernelInfo* kernel : paperKernels())
        paper.push_back(kernel->name);
    EXPECT_EQ(paper,
              (std::vector<std::string>{"bfs", "wcc", "pagerank",
                                        "sssp", "spmv"}));
}

TEST(Registry, MetadataIsCompleteAndConsistent)
{
    for (const KernelInfo* kernel : allKernels()) {
        SCOPED_TRACE(kernel->name);
        EXPECT_FALSE(kernel->name.empty());
        EXPECT_EQ(kernel->name, toLower(kernel->name));
        EXPECT_FALSE(kernel->display.empty());
        EXPECT_FALSE(kernel->summary.empty());
        EXPECT_TRUE(static_cast<bool>(kernel->factory));
        // The reference functor matches the declared result type.
        if (kernel->traits.hasFloatResult)
            EXPECT_TRUE(static_cast<bool>(kernel->referenceFloats));
        else
            EXPECT_TRUE(static_cast<bool>(kernel->referenceWords));
    }
}

TEST(Registry, NameAndAliasLookupRoundTrips)
{
    KernelRegistry& registry = KernelRegistry::instance();
    for (const KernelInfo* kernel : allKernels()) {
        SCOPED_TRACE(kernel->name);
        EXPECT_EQ(registry.find(kernel->name), kernel);
        // Case-insensitive.
        std::string upper = kernel->name;
        for (char& c : upper)
            c = static_cast<char>(std::toupper(
                static_cast<unsigned char>(c)));
        EXPECT_EQ(registry.find(upper), kernel);
        for (const std::string& alias : kernel->aliases)
            EXPECT_EQ(registry.find(alias), kernel) << alias;
        // cli::parseKernel is the same lookup.
        const KernelInfo* parsed = nullptr;
        EXPECT_TRUE(cli::parseKernel(kernel->name, parsed));
        EXPECT_EQ(parsed, kernel);
    }
    EXPECT_EQ(registry.find("dijkstra"), nullptr);
    EXPECT_EQ(registry.find(""), nullptr);
}

TEST(Registry, NewKernelsResolveByAliasToo)
{
    EXPECT_EQ(kernelOrDie("k-core")->name, "kcore");
    EXPECT_EQ(kernelOrDie("coreness")->name, "kcore");
    EXPECT_EQ(kernelOrDie("degree-histogram")->name, "histogram");
    EXPECT_EQ(kernelOrDie("deghist")->name, "histogram");
    EXPECT_EQ(kernelOrDie("registry-test")->name, "regtest");
}

// ---- CLI surfaces render from the registry ----------------------

int
runCli(std::vector<const char*> args, std::string& out,
       std::string& err)
{
    args.insert(args.begin(), "dalorex");
    std::ostringstream out_stream;
    std::ostringstream err_stream;
    const int code =
        cli::cliMain(static_cast<int>(args.size()), args.data(),
                     out_stream, err_stream);
    out = out_stream.str();
    err = err_stream.str();
    return code;
}

int
runSweep(std::vector<const char*> args, std::string& out,
         std::string& err)
{
    args.insert(args.begin(), "sweep");
    std::ostringstream out_stream;
    std::ostringstream err_stream;
    const int code =
        sweep::sweepMain(static_cast<int>(args.size()), args.data(),
                         out_stream, err_stream);
    out = out_stream.str();
    err = err_stream.str();
    return code;
}

TEST(Registry, ListKernelsShowsEveryKernelAndAlias)
{
    std::string out;
    std::string err;
    const int code = runCli({"--list-kernels"}, out, err);
    EXPECT_EQ(code, 0) << err;
    for (const KernelInfo* kernel : allKernels()) {
        EXPECT_NE(out.find(kernel->name), std::string::npos)
            << kernel->name;
        EXPECT_NE(out.find(kernel->summary), std::string::npos)
            << kernel->name;
        for (const std::string& alias : kernel->aliases)
            EXPECT_NE(out.find(alias), std::string::npos) << alias;
    }

    // The sweep subcommand shares the listing.
    std::string sweep_out;
    EXPECT_EQ(runSweep({"--list-kernels"}, sweep_out, err), 0);
    EXPECT_EQ(sweep_out, out);
}

TEST(Registry, UsageTextNamesEveryKernel)
{
    for (const KernelInfo* kernel : allKernels()) {
        EXPECT_NE(cli::usageText().find(kernel->name),
                  std::string::npos)
            << kernel->name;
        EXPECT_NE(sweep::sweepUsageText().find(kernel->name),
                  std::string::npos)
            << kernel->name;
    }
}

TEST(Registry, UnknownKernelDiagnosticListsTheRegistry)
{
    std::string out;
    std::string err;
    const int code = runCli({"--kernel", "dijkstra"}, out, err);
    EXPECT_EQ(code, 2);
    EXPECT_NE(err.find("dijkstra"), std::string::npos);
    EXPECT_NE(err.find("kcore"), std::string::npos);
    EXPECT_NE(err.find("histogram"), std::string::npos);
}

TEST(Registry, SweepKernelAllEnumeratesTheRegistry)
{
    const std::vector<const char*> args = {"sweep", "--kernel",
                                           "all"};
    const sweep::SweepParseResult parsed = sweep::parseSweepArgs(
        static_cast<int>(args.size()), args.data());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    std::vector<std::string> expected;
    for (const KernelInfo* kernel : allKernels())
        expected.push_back(kernel->name);
    EXPECT_EQ(parsed.options.plan.axes.at("kernel"), expected);
}

// ---- every kernel runs and validates ----------------------------

const Csr&
tinyGraph()
{
    static const Csr graph = [] {
        RmatParams params;
        params.scale = 7;
        params.edgeFactor = 8;
        params.seed = 17;
        return rmatGraph(params);
    }();
    return graph;
}

TEST(Registry, EveryKernelValidatesAcrossTopologyPolicyMatrix)
{
    for (const KernelInfo* kernel : allKernels()) {
        if (kernel->name == "regtest-bad")
            continue; // its validator rejects by construction
        KernelSetup setup = makeKernelSetup(*kernel, tinyGraph(), 5);
        setup.iterations = 3;
        for (const NocTopology topology :
             {NocTopology::mesh, NocTopology::torus,
              NocTopology::torusRuche}) {
            for (const SchedPolicy policy :
                 {SchedPolicy::roundRobin,
                  SchedPolicy::trafficAware}) {
                SCOPED_TRACE(kernel->name + std::string("/") +
                             toString(topology) + "/" +
                             toString(policy));
                MachineConfig config;
                config.width = 4;
                config.height = 2;
                config.topology = topology;
                if (topology == NocTopology::torusRuche)
                    config.rucheFactor = 2;
                config.policy = policy;
                auto app = setup.makeApp();
                Machine machine(config, setup.graph.numVertices,
                                setup.graph.numEdges);
                machine.run(*app);
                const ValidationResult valid =
                    validateRun(setup, *app, machine);
                EXPECT_TRUE(valid.ok) << valid.detail;
            }
        }
    }
}

TEST(Registry, CustomValidatorRejectsThroughTheSharedPath)
{
    KernelSetup setup =
        makeKernelSetup("regtest-bad", tinyGraph(), 5);
    auto app = setup.makeApp();
    MachineConfig config;
    config.width = 2;
    config.height = 2;
    Machine machine(config, setup.graph.numVertices,
                    setup.graph.numEdges);
    machine.run(*app);
    const ValidationResult valid = validateRun(setup, *app, machine);
    EXPECT_FALSE(valid.ok);
    EXPECT_NE(valid.detail.find("deliberate test mismatch"),
              std::string::npos);
}

// ---- row-level failure semantics --------------------------------

TEST(Registry, FailedScenarioExitsTwoFromTheCli)
{
    std::string out;
    std::string err;
    const int code = runCli({"--kernel", "regtest-bad", "--scale",
                             "7", "--width", "2", "--height", "2",
                             "--validate"},
                            out, err);
    EXPECT_EQ(code, 2);
    EXPECT_TRUE(out.empty());
    EXPECT_NE(err.find("deliberate test mismatch"),
              std::string::npos);
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1);
}

TEST(Registry, FailedRowDoesNotKillTheSweep)
{
    std::string out;
    std::string err;
    const int code = runSweep(
        {"--kernel", "bfs,regtest-bad", "--grid-size", "2x2",
         "--scale", "7", "--threads", "2", "--validate"},
        out, err);
    EXPECT_EQ(code, 1); // rows failed, process survived
    // The bad kernel's row carries a one-line diagnostic...
    EXPECT_NE(err.find("deliberate test mismatch"),
              std::string::npos);
    EXPECT_NE(err.find("point 2/2"), std::string::npos);
    // ...while the healthy row still renders.
    EXPECT_NE(out.find("bfs"), std::string::npos);
    EXPECT_EQ(out.find("regtest-bad"), std::string::npos);
}

} // namespace
} // namespace dalorex
