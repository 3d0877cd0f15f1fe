/**
 * @file
 * Table-driven tests of the scenario-axis table (cli/scenario.hh):
 * for every row, the command line, `dalorex sweep` and `dalorex
 * serve` refuse the same bad value with the same text (each spelling
 * the axis its own way), accept the same good values into
 * byte-identical run requests, and list the axis in their --help.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli/cli.hh"
#include "cli/scenario.hh"
#include "serve/json.hh"
#include "serve/protocol.hh"
#include "serve/serve_cli.hh"
#include "sweep/sweep_cli.hh"

namespace dalorex
{
namespace cli
{
namespace
{

bool
numeric(const Axis& axis)
{
    return axis.kind == AxisKind::u32 || axis.kind == AxisKind::u64;
}

bool
onSweepSurface(const Axis& axis)
{
    return (axis.surfaces & (onSweep | onSweepList)) != 0;
}

/** `text` with every `from` replaced by `to`. */
std::string
respell(std::string text, const std::string& from, const std::string& to)
{
    for (std::size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size()))
        text.replace(at, from.size(), to);
    return text;
}

std::string
cliError(const std::vector<std::string>& args)
{
    std::vector<const char*> argv = {"dalorex"};
    for (const std::string& arg : args)
        argv.push_back(arg.c_str());
    const ParseResult r = parseArgs(int(argv.size()), argv.data());
    return r.ok ? "" : r.error;
}

sweep::SweepParseResult
sweepParse(const std::vector<std::string>& args)
{
    std::vector<const char*> argv = {"sweep"};
    for (const std::string& arg : args)
        argv.push_back(arg.c_str());
    return sweep::parseSweepArgs(int(argv.size()), argv.data());
}

std::string
sweepError(const std::vector<std::string>& args)
{
    const sweep::SweepParseResult r = sweepParse(args);
    return r.ok ? "" : r.error;
}

/** A JSON value for `text`: numbers verbatim on numeric axes. */
std::string
jsonValue(const Axis& axis, const std::string& text)
{
    return numeric(axis) ? text : serve::jsonQuote(text);
}

serve::ParsedRequest
serveParse(const std::string& members)
{
    return serve::parseRequestLine(
        "{\"type\":\"run\",\"id\":\"t\"" + members + "}");
}

/** How sweep spells a value of the axes it takes through its own
 *  syntax (WxH grids, NAME@SCALE); {flag, value, spelling}. */
bool
sweepSpelling(const Axis& axis, const std::string& value,
              std::vector<std::string>& args, std::string& name)
{
    const std::string key = axis.key;
    if (key == "width" || key == "height") {
        args = {"--grid-size",
                key == "width" ? value + "x4" : "4x" + value};
        name = "--grid-size " + key;
    } else if (key == "dataset_scale") {
        args = {"--dataset", "amazon@" + value};
        name = "--dataset @SCALE";
    } else if (onSweepSurface(axis)) {
        args = {axis.flag, value};
        name = axis.flag;
    } else {
        return false;
    }
    return true;
}

/** Values every surface must refuse for this axis. */
std::vector<std::string>
badValues(const Axis& axis)
{
    switch (axis.kind) {
      case AxisKind::u32:
      case AxisKind::u64: {
        std::vector<std::string> bad = {"-1", "1.5"};
        if (axis.max < ~std::uint64_t(0))
            bad.push_back(std::to_string(axis.max + 1));
        if (axis.min > (axis.zeroUnsets ? 1u : 0u))
            bad.push_back(std::to_string(axis.min - 1));
        return bad;
      }
      case AxisKind::params:
        return {"frobnicate=1", "damping=2", "damping"};
      case AxisKind::flag:
        return {}; // presence flags have no value to refuse
      default:
        return {"no-such-name"};
    }
}

TEST(ScenarioTable, EverySurfaceRefusesABadValueWithTheSameText)
{
    for (const Axis& axis : scenarioAxes()) {
        const std::string key = axis.key;
        for (const std::string& bad : badValues(axis)) {
            SCOPED_TRACE(key + " = " + bad);
            // The reference text, spelled with the JSON key.
            ASSERT_TRUE(axis.surfaces & onServe);
            const std::string expected =
                serveParse(",\"" + key + "\":" + jsonValue(axis, bad))
                    .error;
            ASSERT_FALSE(expected.empty());
            if (axis.kind != AxisKind::params) { // it names the bad key
                EXPECT_NE(expected.find(bad), std::string::npos)
                    << expected;
            }
            if (numeric(axis) && axis.max < ~std::uint64_t(0)) {
                EXPECT_NE(expected.find("[" + std::to_string(axis.min) +
                                        ", " + std::to_string(axis.max) +
                                        "]"),
                          std::string::npos)
                    << expected;
            }
            if ((axis.surfaces & onCli) != 0) {
                EXPECT_EQ(cliError({axis.flag, bad}),
                          respell(expected, key, axis.flag));
            }
            std::vector<std::string> args;
            std::string name;
            if (sweepSpelling(axis, bad, args, name)) {
                EXPECT_EQ(sweepError(args), respell(expected, key, name));
            }
        }
    }
}

/** An in-range, non-default value for the axis. */
std::string
goodValue(const Axis& axis)
{
    const std::string key = axis.key;
    switch (axis.kind) {
      case AxisKind::u32:
      case AxisKind::u64:
        // Stay below the grid side: engine threads and the ruche
        // factor are bounded by the width at run time.
        if (key == "width" || key == "height")
            return "512";
        return std::to_string(std::min<std::uint64_t>(axis.max, 12345));
      case AxisKind::flag:
        return "true";
      case AxisKind::choice:
        // The last non-default entry, by an alias where it has one.
        for (std::size_t i = axis.choices.size(); i-- > 0;)
            if (i != axis.get(Options{}))
                return axis.choices[i].back();
        return "";
      case AxisKind::kernel:
        return "PR";
      case AxisKind::dataset:
        return "wiki";
      case AxisKind::params:
        return "damping=0.5,iterations=7";
    }
    return "";
}

TEST(ScenarioTable, GoodValuesRenderTheSameRequestOnEverySurface)
{
    // Every axis the command line and serve share, set at once.
    std::vector<std::string> cli_args;
    std::string members;
    // The axes all three surfaces share. Sweep takes the dataset and
    // the RMAT scale as one dataset axis, so the dataset stays unset.
    std::vector<std::string> sweep_args = {"--full"};
    std::vector<std::string> shared_cli;
    std::string shared_members;
    for (const Axis& axis : scenarioAxes()) {
        if ((axis.surfaces & onCli) == 0)
            continue;
        const std::string value = goodValue(axis);
        std::vector<std::string> flag = {axis.flag};
        if (axis.kind != AxisKind::flag)
            flag.push_back(value);
        const std::string member = ",\"" + std::string(axis.key) +
                                   "\":" +
                                   (axis.kind == AxisKind::flag
                                        ? value
                                        : jsonValue(axis, value));
        cli_args.insert(cli_args.end(), flag.begin(), flag.end());
        members += member;
        std::vector<std::string> spelled;
        std::string name;
        const std::string key = axis.key;
        if (key == "dataset" || !sweepSpelling(axis, value, spelled, name))
            continue;
        shared_cli.insert(shared_cli.end(), flag.begin(), flag.end());
        shared_members += member;
        if (key == "height")
            continue; // --grid-size carries both sides
        if (key == "width")
            spelled = {"--grid-size", value + "x" + value};
        if (axis.kind == AxisKind::flag)
            spelled.pop_back();
        sweep_args.insert(sweep_args.end(), spelled.begin(),
                          spelled.end());
    }
    // --barrier is sweep's off|on|both axis, not a table flag there.
    sweep_args.insert(sweep_args.end(), {"--barrier", "on"});
    shared_cli.push_back("--barrier");
    shared_members += ",\"barrier\":true";

    auto viaCli = [](const std::vector<std::string>& args) {
        std::vector<const char*> argv = {"dalorex"};
        for (const std::string& arg : args)
            argv.push_back(arg.c_str());
        const ParseResult r = parseArgs(int(argv.size()), argv.data());
        EXPECT_TRUE(r.ok) << r.error;
        return serve::renderRunRequest(r.options, "id", "c");
    };
    auto viaServe = [](const std::string& members) {
        const serve::ParsedRequest r = serveParse(members);
        EXPECT_TRUE(r.ok) << r.error;
        return serve::renderRunRequest(r.request.options, "id", "c");
    };

    const std::string full = viaCli(cli_args);
    EXPECT_EQ(viaServe(members), full);
    EXPECT_NE(full.find("\"deadline_ms\":12345"), std::string::npos);

    const sweep::SweepParseResult parsed = sweepParse(sweep_args);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const sweep::ExpandResult expanded = sweep::expand(parsed.options.plan);
    ASSERT_TRUE(expanded.ok) << expanded.error;
    ASSERT_EQ(expanded.points.size(), 1u);
    const std::string shared = viaCli(shared_cli);
    EXPECT_EQ(serve::renderRunRequest(expanded.points[0], "id", "c"),
              shared);
    EXPECT_EQ(viaServe(shared_members), shared);
}

TEST(ScenarioTable, EveryHelpListsEveryAxisItsSurfaceAccepts)
{
    const std::string cli_help = usageText();
    const std::string sweep_help = sweep::sweepUsageText();
    const std::string serve_help = serve::serveUsageText();
    for (const Axis& axis : scenarioAxes()) {
        if ((axis.surfaces & onCli) != 0) {
            EXPECT_NE(cli_help.find(std::string("  ") + axis.flag + " "),
                      std::string::npos)
                << axis.flag;
        }
        if (onSweepSurface(axis)) {
            EXPECT_NE(sweep_help.find(std::string("  ") + axis.flag +
                                      " "),
                      std::string::npos)
                << axis.flag;
        }
        if ((axis.surfaces & onServe) != 0) {
            EXPECT_NE(serve_help.find(std::string("  ") + axis.key + " "),
                      std::string::npos)
                << axis.key;
        }
    }
    // Sweep's own spellings of the width, height and barrier axes.
    for (const char* flag : {"--grid-size", "--barrier"})
        EXPECT_NE(sweep_help.find(flag), std::string::npos) << flag;
}

TEST(ScenarioTable, ChoiceNamesAreTheEnumSpellings)
{
    // Requests render a choice by its first name; reports render the
    // same enum through toString(), and the two must agree.
    Options o;
    for (const Axis& axis : scenarioAxes()) {
        if (axis.kind != AxisKind::choice)
            continue;
        for (std::size_t i = 0; i < axis.choices.size(); ++i) {
            axis.set(o, i);
            std::string err;
            ASSERT_TRUE(parseAxis(axis, axis.choices[i][0], axis.key, o,
                                  err))
                << err;
            EXPECT_EQ(axis.get(o), i) << axis.key;
        }
    }
    o.machine.topology = NocTopology::torusRuche;
    o.machine.policy = SchedPolicy::roundRobin;
    o.machine.distribution = Distribution::highOrder;
    const std::string rendered = serve::renderRunRequest(o, "", "");
    for (const char* name : {toString(o.machine.topology),
                             toString(o.machine.policy),
                             toString(o.machine.distribution),
                             toString(o.machine.engineScan),
                             toString(o.machine.engineBarrier)})
        EXPECT_NE(rendered.find(std::string("\"") + name + "\""),
                  std::string::npos)
            << name;
}

} // namespace
} // namespace cli
} // namespace dalorex
