#include "serve/protocol.hh"

#include <algorithm>
#include <cmath>
#include <limits>

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

/** The value at a dotted path ("stats.noc.flit_hops"), or nullptr. */
const JsonValue*
findPath(const JsonValue& root, const std::string& path)
{
    const JsonValue* value = &root;
    for (std::size_t from = 0; value != nullptr && from <= path.size();) {
        const std::size_t dot = std::min(path.find('.', from), path.size());
        value = value->isObject()
                    ? value->find(path.substr(from, dot - from))
                    : nullptr;
        from = dot + 1;
    }
    return value;
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
    for (const cli::ReportField& field : cli::reportFields()) {
        if (field.set == nullptr && field.setText == nullptr)
            continue; // derived, or echoed from the submitted options
        const std::string name = std::string(field.section) +
                                 (*field.section != '\0' ? "." : "") +
                                 field.key;
        const JsonValue* value = findPath(root, name);
        if (value == nullptr) {
            if (field.optional)
                continue;
            err = "report payload misses " + name;
            return false;
        }
        std::uint64_t v = 0;
        const bool typed =
            field.kind == cli::FieldKind::text   ? value->isString()
            : field.kind == cli::FieldKind::flag ? value->isBool()
                                                 : value->asU64(v);
        if (!typed) {
            err = "report payload field " + name + " has the wrong type";
            return false;
        }
        if (field.kind == cli::FieldKind::u32 &&
            v > std::numeric_limits<std::uint32_t>::max()) {
            err = "report payload field " + name + " = " + value->raw +
                  " exceeds 32 bits";
            return false;
        }
        if (field.kind == cli::FieldKind::text)
            field.setText(out, value->text);
        else
            field.set(out, field.kind == cli::FieldKind::flag
                               ? std::uint64_t(value->boolean)
                               : v);
    }

    // utilization() divides busy cycles by cycles x tile count, with
    // the tile count taken from the per-tile vector's length; the
    // payload carries no per-tile data, so size the vector (zeros) to
    // the submitted machine shape.
    RunStats& s = out.stats;
    s.puBusyPerTile.assign(submitted.machine.numTiles(), 0);

    // Derive the remaining report fields exactly as runScenario does:
    // identical integers through identical code give identical
    // doubles, so aggregation downstream is byte-identical. A run
    // unwound before its first cycle has no energy to model.
    if (s.cycles > 0) {
        out.energy = dalorexEnergy(s, submitted.machine);
        out.seconds = runSeconds(s);
        out.bandwidthBytesPerSec = avgMemoryBandwidth(s);
    }
    return true;
}

} // namespace serve
} // namespace dalorex
