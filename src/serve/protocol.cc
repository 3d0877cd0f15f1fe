#include "serve/protocol.hh"

#include <cmath>

#include "cli/scenario.hh"
#include "energy/model.hh"
#include "graph/graphfile.hh"
#include "serve/json.hh"

namespace dalorex
{
namespace serve
{
namespace
{

ParsedRequest
fail(ParsedRequest parsed, const std::string& message)
{
    parsed.ok = false;
    parsed.error = message;
    return parsed;
}

/**
 * Best-effort id recovery from a line that cannot be fully parsed
 * (oversized or malformed after the id): scan for the first
 * `"id":"..."` member so the error response still routes. Purely a
 * diagnostic nicety — a wrong guess only mislabels the error line.
 */
std::string
scavengeId(const std::string& line)
{
    const std::size_t key = line.find("\"id\"");
    if (key == std::string::npos)
        return "";
    std::size_t pos = line.find(':', key + 4);
    if (pos == std::string::npos)
        return "";
    ++pos;
    while (pos < line.size() &&
           (line[pos] == ' ' || line[pos] == '\t'))
        ++pos;
    if (pos >= line.size() || line[pos] != '"')
        return "";
    std::string id;
    for (++pos; pos < line.size(); ++pos) {
        if (line[pos] == '\\') {
            ++pos; // skip the escaped char; good enough for an id
            if (pos < line.size())
                id.push_back(line[pos]);
            continue;
        }
        if (line[pos] == '"')
            return id;
        id.push_back(line[pos]);
    }
    return "";
}

/** The opening members of a run request, before its scenario axes. */
std::string
requestHead(const std::string& id, const std::string& client,
            int priority)
{
    return "{\"type\":\"run\",\"id\":" + jsonQuote(id) +
           ",\"client\":" + jsonQuote(client) +
           ",\"priority\":" + std::to_string(priority);
}

} // namespace

ParsedRequest
parseRequestLine(const std::string& line)
{
    ParsedRequest parsed;
    Request& r = parsed.request;

    if (line.size() > maxRequestBytes) {
        r.id = scavengeId(line.substr(0, maxRequestBytes));
        return fail(std::move(parsed),
                    "request line of " + std::to_string(line.size()) +
                        " bytes exceeds the " +
                        std::to_string(maxRequestBytes) +
                        "-byte limit");
    }

    const JsonParseResult json = parseJson(line);
    if (!json.ok) {
        r.id = scavengeId(line);
        return fail(std::move(parsed), "bad JSON: " + json.error);
    }
    if (!json.value.isObject()) {
        r.id = scavengeId(line);
        return fail(std::move(parsed),
                    "request must be a JSON object");
    }
    const JsonValue& object = json.value;

    // id first, so every later refusal still routes to its requester.
    const JsonValue* id = object.find("id");
    if (id != nullptr && id->isString())
        r.id = id->text;
    const JsonValue* type = object.find("type");
    const std::string type_name =
        type == nullptr ? "run" : type->isString() ? type->text : "";
    if (type_name == "run")
        r.type = Request::Type::run;
    else if (type_name == "stats")
        r.type = Request::Type::stats;
    else if (type_name == "shutdown")
        r.type = Request::Type::shutdown;
    else
        return fail(std::move(parsed),
                    "unknown request type: " + type_name +
                        " (run|stats|shutdown)");
    if (r.id.empty())
        return fail(std::move(parsed),
                    "request needs a non-empty string id");

    for (const auto& [name, value] : object.members) {
        if (name == "id" || name == "type")
            continue;
        if (name == "client") {
            if (!value.isString() || value.text.empty())
                return fail(std::move(parsed),
                            "client must be a non-empty string");
            r.client = value.text;
        } else if (name == "priority") {
            // Range before the cast: a double outside int's range
            // has no defined conversion.
            if (!value.isNumber() || value.number < -100.0 ||
                value.number > 100.0 ||
                value.number != std::floor(value.number))
                return fail(std::move(parsed),
                            "priority must be an integer in "
                            "[-100, 100]");
            r.priority = static_cast<int>(value.number);
        } else if (name == "weight") {
            if (!value.isNumber() || value.number <= 0.0 ||
                value.number > 1000.0)
                return fail(std::move(parsed),
                            "weight must be in (0, 1000]");
            r.weight = value.number;
        } else if (const cli::Axis* axis =
                       cli::findAxis(name, cli::onServe)) {
            std::string err;
            if (!cli::parseAxisJson(*axis, value, r.options, err))
                return fail(std::move(parsed), err);
        } else {
            return fail(std::move(parsed),
                        "unknown request field: " + name);
        }
    }
    if (r.type != Request::Type::run)
        return parsed;

    cli::normalizeScenario(r.options);
    const std::string err = cli::scenarioError(r.options);
    return err.empty() ? parsed : fail(std::move(parsed), err);
}

std::string
renderRunRequest(const cli::Options& options, const std::string& id,
                 const std::string& client, int priority)
{
    return requestHead(id, client, priority) +
           cli::renderAxes(options, false) + "}";
}

std::string
renderControlRequest(const std::string& type, const std::string& id)
{
    return "{\"type\":" + jsonQuote(type) + ",\"id\":" +
           jsonQuote(id) + "}";
}

std::uint64_t
pointHash(const cli::Options& options)
{
    const std::string bytes =
        requestHead("", "", 0) + cli::renderAxes(options, true) + "}";
    return hashBytes(bytes.data(), bytes.size());
}

std::string
acceptedLine(const std::string& id, std::uint64_t queued)
{
    return "{\"type\":\"accepted\",\"id\":" + jsonQuote(id) +
           ",\"queued\":" + std::to_string(queued) + "}\n";
}

std::string
errorLine(const std::string& id, const std::string& error)
{
    return "{\"type\":\"error\",\"id\":" + jsonQuote(id) +
           ",\"error\":" + jsonQuote(error) + "}\n";
}

namespace
{
/** The result-line prefix up to the verbatim payload. */
constexpr const char* reportKey = ",\"report\":";
} // namespace

std::string
resultLine(const std::string& id, const std::string& reportJson)
{
    // Embed the renderJson bytes verbatim (sans trailing newline):
    // extractResultPayload recovers them exactly, so a serve-backed
    // result diffs byte-for-byte against a standalone run.
    std::string payload = reportJson;
    while (!payload.empty() && payload.back() == '\n')
        payload.pop_back();
    return "{\"type\":\"result\",\"id\":" + jsonQuote(id) +
           reportKey + payload + "}\n";
}

bool
extractResultPayload(const std::string& line, std::string& out)
{
    if (line.rfind("{\"type\":\"result\",\"id\":", 0) != 0)
        return false;
    // The id is JSON-escaped, so the unquoted `,"report":` sequence
    // cannot occur before the real payload key.
    const std::size_t key = line.find(reportKey);
    if (key == std::string::npos)
        return false;
    std::size_t end = line.size();
    while (end > 0 && (line[end - 1] == '\n' || line[end - 1] == '\r'))
        --end;
    if (end == 0 || line[end - 1] != '}')
        return false;
    --end; // the response object's closing brace
    const std::size_t start = key + std::string(reportKey).size();
    if (start > end)
        return false;
    out = line.substr(start, end - start) + "\n";
    return true;
}

bool
parseReportPayload(const std::string& payload,
                   const cli::Options& submitted, cli::Report& out,
                   std::string& err)
{
    const JsonParseResult json = parseJson(payload);
    if (!json.ok) {
        err = "bad report payload: " + json.error;
        return false;
    }
    const JsonValue& root = json.value;
    if (!root.isObject()) {
        err = "report payload is not an object";
        return false;
    }

    out = cli::Report{};
    out.options = submitted;

    const JsonValue* dataset = root.find("dataset");
    const JsonValue* stats = root.find("stats");
    if (dataset == nullptr || !dataset->isObject() ||
        stats == nullptr || !stats->isObject()) {
        err = "report payload misses dataset/stats";
        return false;
    }

    auto u64At = [&err](const JsonValue& object, const char* name,
                        std::uint64_t& value) {
        const JsonValue* field = object.find(name);
        if (field == nullptr || !field->asU64(value)) {
            err = std::string("report payload misses ") + name;
            return false;
        }
        return true;
    };

    const JsonValue* name = dataset->find("name");
    if (name == nullptr || !name->isString()) {
        err = "report payload misses dataset.name";
        return false;
    }
    out.datasetName = name->text;
    std::uint64_t v = 0;
    if (!u64At(*dataset, "vertices", v))
        return false;
    out.numVertices = static_cast<VertexId>(v);
    if (!u64At(*dataset, "edges", v))
        return false;
    out.numEdges = static_cast<EdgeId>(v);

    RunStats& s = out.stats;
    if (!u64At(*stats, "cycles", s.cycles))
        return false;
    if (!u64At(*stats, "epochs", v))
        return false;
    s.epochs = static_cast<std::uint32_t>(v);
    if (!u64At(*stats, "invocations", s.invocations) ||
        !u64At(*stats, "edges_processed", s.edgesProcessed) ||
        !u64At(*stats, "pu_busy_cycles", s.puBusyCycles) ||
        !u64At(*stats, "pu_ops", s.puOps) ||
        !u64At(*stats, "sram_reads", s.sramReads) ||
        !u64At(*stats, "sram_writes", s.sramWrites) ||
        !u64At(*stats, "tsu_reads", s.tsuReads) ||
        !u64At(*stats, "tsu_writes", s.tsuWrites) ||
        !u64At(*stats, "local_bypass_msgs", s.localBypassMsgs) ||
        !u64At(*stats, "scratchpad_bytes_total",
               s.scratchpadBytesTotal) ||
        !u64At(*stats, "scratchpad_bytes_max", s.scratchpadBytesMax))
        return false;

    const JsonValue* noc = stats->find("noc");
    if (noc == nullptr || !noc->isObject()) {
        err = "report payload misses stats.noc";
        return false;
    }
    if (!u64At(*noc, "messages_injected", s.noc.messagesInjected) ||
        !u64At(*noc, "messages_delivered", s.noc.messagesDelivered) ||
        !u64At(*noc, "flit_hops", s.noc.flitHops) ||
        !u64At(*noc, "flit_wire_tiles", s.noc.flitWireTiles) ||
        !u64At(*noc, "router_passages", s.noc.routerPassages) ||
        !u64At(*noc, "delivery_stalls", s.noc.deliveryStalls))
        return false;

    if (const JsonValue* engine = stats->find("engine");
        engine != nullptr && engine->isObject()) {
        (void)u64At(*engine, "stepped_cycles", s.engineSteppedCycles);
        (void)u64At(*engine, "noc_stepped_cycles",
                    s.nocSteppedCycles);
        (void)u64At(*engine, "tile_scans", s.tileScans);
        (void)u64At(*engine, "router_scans", s.routerScans);
        (void)u64At(*engine, "active_tile_cycles_saved",
                    s.activeTileCyclesSaved);
        (void)u64At(*engine, "active_router_cycles_saved",
                    s.activeRouterCyclesSaved);
        (void)u64At(*engine, "rebalances", s.engineRebalances);
        err.clear(); // engine counters are simulator-only; optional
    }

    // Older payloads predate the status field; absence means the run
    // completed (the only status they could report).
    if (const JsonValue* status = root.find("status");
        status != nullptr && status->isString()) {
        if (status->text == "timeout")
            s.status = RunStatus::timeout;
        else if (status->text == "cancelled")
            s.status = RunStatus::cancelled;
        else if (status->text == "deadlock")
            s.status = RunStatus::deadlock;
        else
            s.status = RunStatus::completed;
    }

    if (const JsonValue* validated = root.find("validated");
        validated != nullptr && validated->isBool())
        out.validated = validated->boolean;

    // utilization() divides busy cycles by cycles x tile count, with
    // the tile count taken from the per-tile vector's length; the
    // payload carries no per-tile data, so size the vector (zeros) to
    // the submitted machine shape.
    s.puBusyPerTile.assign(submitted.machine.numTiles(), 0);

    // Derive the remaining report fields exactly as runScenario does:
    // identical integers through identical code give identical
    // doubles, so aggregation downstream is byte-identical.
    out.energy = dalorexEnergy(s, submitted.machine);
    out.seconds = runSeconds(s);
    out.bandwidthBytesPerSec = avgMemoryBandwidth(s);
    return true;
}

} // namespace serve
} // namespace dalorex
