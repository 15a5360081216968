#include "shapley/obs/replay.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "shapley/net/client.h"
#include "shapley/net/json.h"

namespace shapley::obs {

using net::Json;

namespace {

/// Drops the run-volatile members from EVERY object level, not just the
/// top one: "stats" (timings, and memo-hit counts that depend on thread
/// scheduling and memo warmth) and "trace" (the span tree times engine
/// internals, different on every run), plus the relative-timestamp and
/// latency members the /v1/debug/* endpoints carry ("t_ms", "uptime_ms",
/// "latency_us", "latency_ms") — within one run those are stable offsets,
/// across runs they differ, so canonical comparison strips them. A shallow
/// strip would leave volatile children behind and break bit-identical
/// replay comparison.
Json StripVolatileMembers(const Json& json) {
  if (const Json::Object* members = json.IfObject()) {
    Json canonical;
    for (const auto& [key, value] : *members) {
      if (key == "stats" || key == "trace" || key == "t_ms" ||
          key == "uptime_ms" || key == "latency_us" || key == "latency_ms") {
        continue;
      }
      canonical.Set(key, StripVolatileMembers(value));
    }
    return canonical;
  }
  if (const Json::Array* elements = json.IfArray()) {
    Json canonical = Json::Arr();
    for (const Json& element : *elements) {
      canonical.Push(StripVolatileMembers(element));
    }
    return canonical;
  }
  return json;
}

}  // namespace

std::string CanonicalResponseBody(const std::string& raw) {
  std::optional<Json> json = Json::Parse(raw);
  if (!json.has_value() || !json->is_object()) return raw;
  return StripVolatileMembers(*json).Dump();
}

std::string CanonicalBatchBody(const std::vector<std::string>& lines) {
  std::vector<std::pair<uint64_t, std::string>> tagged;
  tagged.reserve(lines.size());
  for (const std::string& line : lines) {
    uint64_t id = 0;
    if (std::optional<Json> json = Json::Parse(line)) {
      if (const Json* tag = json->Find("id")) {
        id = tag->IfUint64().value_or(0);
      }
    }
    tagged.emplace_back(id, CanonicalResponseBody(line));
  }
  std::sort(tagged.begin(), tagged.end());
  std::string out;
  for (size_t i = 0; i < tagged.size(); ++i) {
    if (i > 0) out += "\n";
    out += tagged[i].second;
  }
  return out;
}

ReplayResult Replay(const std::vector<LogEntry>& log, const std::string& host,
                    uint16_t port, const ReplayOptions& options) {
  ReplayResult result;
  result.responses.reserve(log.size());
  net::ShapleyClient client(host, port);
  const auto start = std::chrono::steady_clock::now();
  for (const LogEntry& entry : log) {
    if (options.speed > 0.0) {
      const auto due =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          entry.t_ms / options.speed));
      std::this_thread::sleep_until(due);
    }
    ++result.requests_sent;
    try {
      if (entry.target == "/v1/batch") {
        std::vector<std::string> lines;
        client.RawBatch(entry.body, [&lines](const std::string& line) {
          lines.push_back(line);
        });
        result.responses.push_back(CanonicalBatchBody(lines));
      } else {
        int status = 0;
        std::string body = client.RawCompute(entry.body, &status);
        result.responses.push_back(CanonicalResponseBody(body));
      }
    } catch (const std::exception&) {
      ++result.transport_errors;
      result.responses.emplace_back();
    }
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

}  // namespace shapley::obs
