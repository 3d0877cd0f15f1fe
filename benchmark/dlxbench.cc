/**
 * @file
 * dlxbench: the in-process half of the repository benchmark.
 *
 * benchmark/run.py generates every input from its --seed and hands it
 * to this program, which calls the public functions of the graph, apps,
 * sim, cli and serve layers and reports what it measured as JSON lines
 * on stdout. All statistics are computed by run.py; this program only
 * timestamps calls and forwards the report payloads verbatim.
 *
 *   dlxbench info
 *       compiler and build type of this binary.
 *   dlxbench points --file F [--trace 0|1] [--spans S]
 *       F holds one scenario per line as `dalorex` CLI flags. Each
 *       point runs through the same stage sequence as
 *       cli::runScenario, with the dataset cache cleared first (cold).
 *       Point 0 first runs through cli::runScenario itself, as the
 *       warm-up and byte-identity reference. --trace 1 runs every
 *       point twice, untraced then traced, recording spans around each
 *       layer call; the spans are written to S at the end.
 *   dlxbench serve --requests R --sample F [--workers N]
 *                  [--connections C] [--spans S]
 *       R holds one `dalorex serve` run request per line, without a
 *       client field (each connection adds its own). The stream
 *       is driven through serve::Server::handleLine by C closed-loop
 *       connections, untraced, traced, then untraced again; then every
 *       dataset of F is built cold and the points of F run traced on a
 *       warm cache (the in-process cost of each served point).
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/graph_app.hh"
#include "apps/kernels.hh"
#include "cli/cli.hh"
#include "energy/model.hh"
#include "graph/dataset_cache.hh"
#include "graph/datasets.hh"
#include "serve/json.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/machine.hh"

#ifndef DLXBENCH_BUILD_TYPE
#define DLXBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace dalorex;
using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (CLOCK_MONOTONIC on Linux). */
std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
seconds(std::int64_t from, std::int64_t to)
{
    return double(to - from) * 1e-9;
}

/** One recorded span: a timed call at a layer boundary. */
struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;     //!< index of the enclosing span, -1 = root
    std::string request; //!< point or request id the span belongs to
};

/**
 * In-memory span recorder. Disabled, open() returns -1 without reading
 * the clock, so the untraced path pays nothing but a branch.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    int
    open(const char* name, int parent, const std::string& request)
    {
        if (!enabled_)
            return -1;
        spans_.push_back(Span{name, nowNs(), 0, parent, request});
        return int(spans_.size()) - 1;
    }

    void
    close(int span)
    {
        if (span >= 0)
            spans_[std::size_t(span)].end = nowNs();
    }

    /** Record a span whose bounds were measured elsewhere. */
    int
    add(const char* name, std::int64_t start, std::int64_t end,
        int parent, const std::string& request)
    {
        if (!enabled_)
            return -1;
        spans_.push_back(Span{name, start, end, parent, request});
        return int(spans_.size()) - 1;
    }

    bool
    write(const std::string& path) const
    {
        std::ofstream out(path);
        out << "{\"spans\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
                << "\",\"start_ns\":" << s.start
                << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
                << ",\"request\":" << serve::jsonQuote(s.request) << "}";
        }
        out << "\n]}\n";
        return bool(out);
    }

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** Result of one scenario: stage stamps plus the rendered report. */
struct PointResult
{
    bool ok = true;
    std::string error;
    std::string payload; //!< cli::renderJson output
    std::int64_t start = 0;
    std::int64_t runStart = 0; //!< Machine::run entered
    std::int64_t runEnd = 0;
    std::int64_t end = 0; //!< report rendered
};

/**
 * The stage sequence of cli::runScenario, call for call, with a span
 * around each layer call. Kept in step with cli.cc: the oracle run
 * (cli::runScenario itself) must render byte-identical reports.
 */
PointResult
runPoint(const cli::Options& o, Tracer& tracer, const std::string& id)
{
    PointResult r;
    cli::Report report;
    report.options = o;
    r.start = nowNs();
    const int root = tracer.open("scenario", -1, id);
    auto fail = [&](const std::string& message) {
        tracer.close(root);
        r.ok = false;
        r.error = message;
        r.end = nowNs();
        return r;
    };

    const std::string dataset_name =
        !o.dataset.empty() ? o.dataset
                           : "rmat" + std::to_string(o.scale);
    if (!knownDataset(dataset_name))
        return fail("unknown dataset: " + dataset_name);
    int span = tracer.open("graph.dataset", root, id);
    const CachedDataset cached =
        datasetCacheGet(dataset_name, o.datasetScale, o.seed);
    tracer.close(span);
    if (!cached.ok)
        return fail(cached.error);
    report.datasetName =
        !o.dataset.empty() ? cached.dataset->name : dataset_name;

    const int kernel_span = tracer.open("apps.kernel_setup", root, id);
    span = tracer.open("apps.make_kernel_setup", kernel_span, id);
    KernelSetup setup =
        makeKernelSetup(*o.kernel, cached.dataset->graph, o.seed);
    tracer.close(span);
    span = tracer.open("apps.param_overrides", kernel_span, id);
    applyParamOverrides(setup, o.params);
    tracer.close(span);
    report.numVertices = setup.graph.numVertices;
    report.numEdges = setup.graph.numEdges;
    span = tracer.open("apps.make_app", kernel_span, id);
    auto app = setup.makeApp();
    tracer.close(span);
    tracer.close(kernel_span);

    span = tracer.open("sim.machine_build", root, id);
    Machine machine(o.machine, setup.graph.numVertices,
                    setup.graph.numEdges, nullptr);
    tracer.close(span);

    RunControl control;
    span = tracer.open("sim.run", root, id);
    r.runStart = nowNs();
    report.stats = machine.run(*app, &control);
    r.runEnd = nowNs();
    report.engineWallSeconds = seconds(r.runStart, r.runEnd);
    tracer.close(span);

    span = tracer.open("energy.model", root, id);
    if (report.stats.cycles > 0) {
        report.energy = dalorexEnergy(report.stats, o.machine);
        report.seconds = runSeconds(report.stats);
        report.bandwidthBytesPerSec = avgMemoryBandwidth(report.stats);
    }
    tracer.close(span);
    if (report.stats.status != RunStatus::completed)
        return fail(std::string(toString(report.stats.status)) + ": " +
                    report.stats.statusDetail);

    if (o.validate) {
        span = tracer.open("apps.validate", root, id);
        const ValidationResult valid =
            validateRun(setup, *app, machine);
        tracer.close(span);
        if (!valid)
            return fail(o.kernel->name + " on " + report.datasetName +
                        ": " + valid.detail);
        report.validated = true;
    }

    span = tracer.open("cli.render", root, id);
    r.payload = cli::renderJson(report);
    tracer.close(span);
    tracer.close(root);
    r.end = nowNs();
    return r;
}

/** Parse one line of `dalorex` flags into Options. */
bool
parsePointLine(const std::string& line, cli::Options& out,
               std::string& err)
{
    std::istringstream words(line);
    std::vector<std::string> args{"dalorex"};
    for (std::string w; words >> w;)
        args.push_back(w);
    std::vector<const char*> argv;
    for (const std::string& a : args)
        argv.push_back(a.c_str());
    const cli::ParseResult parsed =
        cli::parseArgs(int(argv.size()), argv.data());
    if (!parsed.ok) {
        err = parsed.error;
        return false;
    }
    out = parsed.options;
    return true;
}

std::vector<std::string>
readLines(const std::string& path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        if (line.find_first_not_of(" \t\r") != std::string::npos)
            lines.push_back(line);
    return lines;
}

/** One JSON line describing a finished point run. */
void
emitPoint(const char* kind, std::size_t point, bool traced,
          const PointResult& r)
{
    // Cumulative since the last datasetCacheClear().
    const DatasetCacheStats cache = datasetCacheStats();
    std::cout << "{\"kind\":\"" << kind << "\",\"point\":" << point
              << ",\"traced\":" << (traced ? "true" : "false")
              << ",\"ok\":" << (r.ok ? "true" : "false")
              << ",\"error\":" << serve::jsonQuote(r.error)
              << ",\"start_ns\":" << r.start
              << ",\"run_start_ns\":" << r.runStart
              << ",\"run_end_ns\":" << r.runEnd
              << ",\"end_ns\":" << r.end
              << ",\"cache_builds\":" << cache.builds
              << ",\"cache_hits\":" << cache.hits
              << ",\"payload\":" << serve::jsonQuote(r.payload) << "}"
              << std::endl;
}

/** Minimal flag reader: --name value pairs. */
std::map<std::string, std::string>
readFlags(int argc, char** argv, int first)
{
    std::map<std::string, std::string> flags;
    for (int i = first; i + 1 < argc; i += 2)
        flags[argv[i]] = argv[i + 1];
    return flags;
}

std::string
flag(const std::map<std::string, std::string>& flags,
     const std::string& name, const std::string& fallback)
{
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
}

int
cmdPoints(const std::map<std::string, std::string>& flags)
{
    const std::vector<std::string> lines =
        readLines(flag(flags, "--file", ""));
    const bool trace = flag(flags, "--trace", "0") == "1";
    std::vector<cli::Options> points;
    for (const std::string& line : lines) {
        cli::Options o;
        std::string err;
        if (!parsePointLine(line, o, err)) {
            std::cerr << "dlxbench: bad point '" << line
                      << "': " << err << "\n";
            return 2;
        }
        points.push_back(o);
    }
    if (points.empty()) {
        std::cerr << "dlxbench: no points\n";
        return 2;
    }

    datasetCacheClear();
    PointResult oracle;
    oracle.start = nowNs();
    const cli::RunOutcome outcome = cli::runScenario(points[0]);
    oracle.ok = outcome.ok;
    oracle.error = outcome.error;
    oracle.payload = cli::renderJson(outcome.report);
    oracle.end = nowNs();
    emitPoint("oracle", 0, false, oracle);

    Tracer untraced(false);
    Tracer tracer(true);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string id = "p" + std::to_string(i);
        datasetCacheClear();
        emitPoint("point", i, false, runPoint(points[i], untraced, id));
        if (!trace)
            continue;
        datasetCacheClear();
        emitPoint("point", i, true, runPoint(points[i], tracer, id));
    }
    if (trace && !tracer.write(flag(flags, "--spans", "spans.json"))) {
        std::cerr << "dlxbench: cannot write spans\n";
        return 1;
    }
    return 0;
}

/**
 * One closed-loop client connection: sends its next request only
 * after the previous one was answered with `result` or `error`.
 */
struct Client
{
    std::mutex mutex;
    std::condition_variable answered;
    bool done = false;
    std::int64_t acceptedAt = 0;
    std::string answer; //!< the result/error line
};

/** What one request went through, for the JSON record. */
struct RequestRecord
{
    std::int64_t sent = 0;
    std::int64_t accepted = 0;
    std::int64_t answered = 0;
    std::string line;
};

/** `"queue_depth":N` out of a stats line (-1 when absent). */
long
queueDepth(const std::string& statsLine)
{
    const std::string key = "\"queue_depth\":";
    const std::size_t at = statsLine.find(key);
    return at == std::string::npos
               ? -1
               : std::strtol(statsLine.c_str() + at + key.size(),
                             nullptr, 10);
}

/**
 * Drive the request stream through one fresh in-process Server with
 * `connections` closed-loop clients. Traced, each request gets a
 * `serve.request` span (send to answer) with a `serve.accept` child
 * (send to the `accepted` line), and the queue depth is sampled
 * through the `stats` line at every send.
 */
void
servePass(const std::vector<std::string>& requests, unsigned workers,
          unsigned connections, Tracer& tracer, int pass)
{
    datasetCacheClear();
    serve::Server server(workers);
    std::thread crew([&] { server.serve(); });

    std::vector<std::unique_ptr<Client>> clients;
    std::vector<std::uint64_t> conns;
    for (unsigned c = 0; c < connections; ++c) {
        clients.push_back(std::make_unique<Client>());
        Client* client = clients.back().get();
        conns.push_back(server.openConnection(
            [client](const std::string& line) {
                std::lock_guard<std::mutex> lock(client->mutex);
                if (line.rfind("{\"type\":\"accepted\"", 0) == 0) {
                    client->acceptedAt = nowNs();
                    return;
                }
                client->answer = line;
                client->done = true;
                client->answered.notify_one();
            }));
    }

    std::vector<RequestRecord> records(requests.size());
    std::vector<long> depths;
    std::mutex depthMutex;
    std::mutex nextMutex;
    std::size_t next = 0;
    const std::int64_t passStart = nowNs();
    std::vector<std::thread> loops;
    for (unsigned c = 0; c < connections; ++c) {
        loops.emplace_back([&, c] {
            Client& client = *clients[c];
            for (;;) {
                std::size_t index;
                {
                    std::lock_guard<std::mutex> lock(nextMutex);
                    if (next == requests.size())
                        return;
                    index = next++;
                }
                if (tracer.enabled()) {
                    const long depth = queueDepth(server.statsLine(""));
                    std::lock_guard<std::mutex> lock(depthMutex);
                    depths.push_back(depth);
                }
                RequestRecord& rec = records[index];
                {
                    std::lock_guard<std::mutex> lock(client.mutex);
                    client.done = false;
                }
                // Each connection is its own fair-share client.
                const std::string line = "{\"client\":\"c" +
                                         std::to_string(c) + "\"," +
                                         requests[index].substr(1);
                rec.sent = nowNs();
                server.handleLine(conns[c], line);
                std::unique_lock<std::mutex> lock(client.mutex);
                client.answered.wait(lock, [&] { return client.done; });
                rec.answered = nowNs();
                rec.accepted = client.acceptedAt;
                rec.line = client.answer;
            }
        });
    }
    for (std::thread& t : loops)
        t.join();
    const std::int64_t passEnd = nowNs();
    const DatasetCacheStats cache = datasetCacheStats();
    server.requestShutdown();
    crew.join();

    const bool traced = tracer.enabled();
    for (std::size_t i = 0; i < records.size(); ++i) {
        RequestRecord& rec = records[i];
        std::string payload;
        const bool ok = serve::extractResultPayload(rec.line, payload);
        while (!payload.empty() && payload.back() == '\n')
            payload.pop_back();
        const std::string id = "r" + std::to_string(i);
        const int root =
            tracer.add("serve.request", rec.sent, rec.answered, -1, id);
        tracer.add("serve.accept", rec.sent, rec.accepted, root, id);
        std::cout << "{\"kind\":\"request\",\"pass\":" << pass
                  << ",\"index\":" << i
                  << ",\"traced\":" << (traced ? "true" : "false")
                  << ",\"ok\":" << (ok ? "true" : "false")
                  << ",\"sent_ns\":" << rec.sent
                  << ",\"accepted_ns\":" << rec.accepted
                  << ",\"answered_ns\":" << rec.answered
                  << ",\"payload\":"
                  << serve::jsonQuote(ok ? payload : rec.line) << "}\n";
    }
    std::cout << "{\"kind\":\"pass\",\"pass\":" << pass
              << ",\"traced\":" << (traced ? "true" : "false")
              << ",\"start_ns\":" << passStart
              << ",\"end_ns\":" << passEnd
              << ",\"cache_builds\":" << cache.builds
              << ",\"cache_hits\":" << cache.hits
              << ",\"queue_depths\":[";
    for (std::size_t i = 0; i < depths.size(); ++i)
        std::cout << (i ? "," : "") << depths[i];
    std::cout << "]}" << std::endl;
}

int
cmdServe(const std::map<std::string, std::string>& flags)
{
    const std::vector<std::string> requests =
        readLines(flag(flags, "--requests", ""));
    const std::vector<std::string> sample =
        readLines(flag(flags, "--sample", ""));
    const unsigned workers =
        unsigned(std::stoul(flag(flags, "--workers", "2")));
    const unsigned connections =
        unsigned(std::stoul(flag(flags, "--connections", "4")));
    if (requests.empty() || workers == 0 || connections == 0) {
        std::cerr << "dlxbench: serve needs requests, workers and "
                     "connections\n";
        return 2;
    }
    std::vector<cli::Options> points;
    for (const std::string& line : sample) {
        cli::Options o;
        std::string err;
        if (!parsePointLine(line, o, err)) {
            std::cerr << "dlxbench: bad point '" << line
                      << "': " << err << "\n";
            return 2;
        }
        points.push_back(o);
    }

    // Untraced passes on both sides of the traced one, so warm-up and
    // drift do not read as tracing overhead.
    Tracer untraced(false);
    Tracer tracer(true);
    servePass(requests, workers, connections, untraced, 0);
    servePass(requests, workers, connections, tracer, 1);
    servePass(requests, workers, connections, untraced, 2);

    // Cold builds of every dataset the sample touches, then the
    // sample's points on the warm cache: the in-process cost of a
    // served point without protocol or queueing.
    datasetCacheClear();
    std::set<std::tuple<std::string, unsigned, std::uint64_t>> built;
    for (const cli::Options& o : points) {
        const std::string name = !o.dataset.empty()
                                     ? o.dataset
                                     : "rmat" + std::to_string(o.scale);
        if (!built.emplace(name, o.datasetScale, o.seed).second)
            continue;
        const int span = tracer.open("graph.dataset_cold", -1, name);
        datasetCacheGet(name, o.datasetScale, o.seed);
        tracer.close(span);
    }
    for (std::size_t i = 0; i < points.size(); ++i)
        emitPoint("point", i, true,
                  runPoint(points[i], tracer, "s" + std::to_string(i)));
    if (!tracer.write(flag(flags, "--spans", "spans.json"))) {
        std::cerr << "dlxbench: cannot write spans\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::string command = argc > 1 ? argv[1] : "";
    const auto flags = readFlags(argc, argv, 2);
    if (command == "info") {
        std::cout << "{\"kind\":\"info\",\"compiler\":"
                  << serve::jsonQuote(__VERSION__)
                  << ",\"build_type\":\"" << DLXBENCH_BUILD_TYPE
                  << "\"}" << std::endl;
        return 0;
    }
    if (command == "points")
        return cmdPoints(flags);
    if (command == "serve")
        return cmdServe(flags);
    std::cerr << "usage: dlxbench info | points --file F [--trace 0|1] "
                 "[--spans S] | serve --requests R "
                 "--sample F [--workers N] [--connections C] "
                 "[--spans S]\n";
    return 2;
}
