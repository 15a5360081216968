// The slow-request capture (obs/slowlog.h):
//
//  (a) ShouldCapture is a pure threshold gate (0 disables), the ring
//      bounds residency at `capacity` keeping the NEWEST entries, and
//      total_captured counts every capture including overwritten ones;
//  (b) the wire shape round-trips: a /v1/debug/slow response body parses
//      back into Replay-ready LogEntries with bodies VERBATIM, and
//      malformed payloads are rejected without touching the output;
//  (c) END TO END: against a server whose threshold marks everything
//      slow, singles AND batch items land in the slow-log with their
//      verbatim POST bodies; fetched via GET /v1/debug/slow, parsed, and
//      replayed against a FRESH server, every outlier reproduces its
//      original response BIT-IDENTICALLY in canonical form — the
//      slow-log → replay triage workflow, proven over real TCP;
//  (d) a threshold far above real latencies captures NOTHING — fast
//      requests never pay the capture.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "shapley/data/parser.h"
#include "shapley/net/client.h"
#include "shapley/net/codec.h"
#include "shapley/net/json.h"
#include "shapley/net/server.h"
#include "shapley/obs/replay.h"
#include "shapley/obs/slowlog.h"
#include "shapley/query/query_parser.h"
#include "shapley/service/shapley_service.h"

namespace shapley::obs {
namespace {

using net::Json;
using net::ShapleyClient;

QueryPtr ParseQuery(const std::shared_ptr<Schema>& schema,
                    std::string_view text) {
  UcqPtr ucq = ParseUcq(schema, text);
  if (ucq->disjuncts().size() == 1) return ucq->disjuncts()[0];
  return ucq;
}

TEST(SlowLog, ThresholdGatesAndRingBoundsResidency) {
  SlowLog log(/*threshold_ms=*/10.0, /*capacity=*/2);
  EXPECT_FALSE(log.ShouldCapture(9.999));
  EXPECT_TRUE(log.ShouldCapture(10.0));
  EXPECT_TRUE(log.ShouldCapture(500.0));

  // Threshold 0 disables capture entirely.
  SlowLog disabled(/*threshold_ms=*/0.0, /*capacity=*/2);
  EXPECT_FALSE(disabled.ShouldCapture(1e9));

  for (int i = 0; i < 3; ++i) {
    SlowEntry entry;
    entry.target = "/v1/compute";
    entry.body = "body-" + std::to_string(i);
    entry.latency_ms = 10.0 + i;
    entry.status = 200;
    log.Capture(std::move(entry));
  }
  EXPECT_EQ(log.total_captured(), 3u);
  const auto snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);  // Bounded; the NEWEST two survive.
  EXPECT_EQ(snapshot[0].body, "body-1");
  EXPECT_EQ(snapshot[1].body, "body-2");
  EXPECT_GE(snapshot[1].t_ms, snapshot[0].t_ms);
}

TEST(SlowLog, WireShapeRoundTripsToReplayEntries) {
  SlowEntry entry;
  entry.t_ms = 12.5;
  entry.target = "/v1/compute";
  entry.body = R"js({"query":"R(?x)","mode":"all-values"})js";
  entry.latency_ms = 300.25;
  entry.status = 200;
  entry.engine = "sampling";
  entry.mode = "all-values";
  entry.strategy = "hoeffding";
  entry.shard_key_hash = 42;
  entry.trace_id = "00ab";

  // A /v1/debug/slow response carrying that one entry parses back into a
  // Replay-ready LogEntry with the body VERBATIM.
  Json body;
  body.Set("threshold_ms", Json::Number(250.0));
  body.Set("capacity", Json::Number(uint64_t{32}));
  body.Set("captured", Json::Number(uint64_t{1}));
  Json entries = Json::Arr();
  entries.Push(SlowEntryJson(entry));
  body.Set("entries", std::move(entries));

  std::vector<LogEntry> log;
  ASSERT_TRUE(ParseSlowLogBody(body.Dump(), &log));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].t_ms, 12.5);
  EXPECT_EQ(log[0].target, "/v1/compute");
  EXPECT_EQ(log[0].body, entry.body);

  // Malformed payloads fail without touching the output.
  std::vector<LogEntry> untouched = log;
  EXPECT_FALSE(ParseSlowLogBody("not json", &untouched));
  EXPECT_FALSE(ParseSlowLogBody(R"({"captured":1})", &untouched));
  EXPECT_FALSE(ParseSlowLogBody(
      R"({"entries":[{"t_ms":1,"target":"/v1/compute"}]})", &untouched));
  EXPECT_EQ(untouched.size(), log.size());
}

TEST(SlowLogE2E, CapturesOutliersAndReplaysBitIdentically) {
  auto schema = Schema::Create();
  SvcRequest easy;
  easy.query = ParseQuery(schema, "R(x), S(x,y)");
  easy.db = ParsePartitionedDatabase(schema, "R(a) S(a,b) | S(a,c)");
  SvcRequest sampled;
  sampled.query = ParseQuery(schema, "R(x), S(x,y), T(y)");
  sampled.db =
      ParsePartitionedDatabase(schema, "R(a) S(a,b) T(b) | T(c) S(a,c)");
  sampled.engine = "sampling";
  sampled.approx.epsilon = 0.2;
  sampled.approx.seed = 11;
  const std::vector<std::string> singles = {
      net::EncodeRequest(easy).Dump(), net::EncodeRequest(sampled).Dump()};
  Json batch;
  {
    Json requests = Json::Arr();
    for (const std::string& body : singles) {
      requests.Push(*Json::Parse(body));
    }
    batch.Set("requests", std::move(requests));
  }

  std::string slow_body;
  std::vector<LogEntry> captured;
  std::vector<std::string> expected;  // Canonical response per entry.
  {
    // Threshold just above zero: EVERY request is an outlier — the
    // deterministic way to exercise the capture path.
    ServiceOptions service_options;
    service_options.threads = 1;
    ShapleyService service(service_options);
    net::ServerOptions server_options;
    server_options.slow_threshold_ms = 1e-6;
    net::HttpServer server(&service, server_options);
    server.Start();
    ShapleyClient client("127.0.0.1", server.port());

    int status = 0;
    for (const std::string& body : singles) {
      client.RawCompute(body, &status);
      EXPECT_EQ(status, 200);
    }
    client.RawBatch(batch.Dump(), [](const std::string&) {});

    slow_body = client.RawGet("/v1/debug/slow", &status);
    EXPECT_EQ(status, 200);
    ASSERT_TRUE(ParseSlowLogBody(slow_body, &captured));
    // 2 singles + 2 batch items, each batch item captured STANDALONE
    // under /v1/compute so it replays without the rest of its batch.
    ASSERT_EQ(captured.size(), 4u);
    for (const LogEntry& entry : captured) {
      EXPECT_EQ(entry.target, "/v1/compute");
      EXPECT_FALSE(entry.body.empty());
    }
    // The first two captures are the singles, bodies VERBATIM.
    EXPECT_EQ(captured[0].body, singles[0]);
    EXPECT_EQ(captured[1].body, singles[1]);
    server.Stop();
  }

  // Ground truth: what each captured body answers on a FRESH server.
  {
    ServiceOptions service_options;
    service_options.threads = 1;
    ShapleyService service(service_options);
    net::HttpServer server(&service, {});
    server.Start();
    ShapleyClient client("127.0.0.1", server.port());
    int status = 0;
    for (const LogEntry& entry : captured) {
      expected.push_back(
          CanonicalResponseBody(client.RawCompute(entry.body, &status)));
      EXPECT_EQ(status, 200);
    }
    server.Stop();
  }

  // Replay the parsed slow-log against a FRESH server: every outlier
  // reproduces bit-identically in canonical form.
  ServiceOptions service_options;
  service_options.threads = 1;
  ShapleyService service(service_options);
  net::HttpServer server(&service, {});
  server.Start();
  const ReplayResult result = Replay(captured, "127.0.0.1", server.port());
  server.Stop();

  EXPECT_EQ(result.requests_sent, captured.size());
  EXPECT_EQ(result.transport_errors, 0u);
  ASSERT_EQ(result.responses.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.responses[i], expected[i]) << "entry " << i;
    EXPECT_FALSE(result.responses[i].empty()) << "dropped entry " << i;
  }
}

TEST(SlowLogE2E, FastRequestsBelowThresholdAreNotCaptured) {
  auto schema = Schema::Create();
  SvcRequest easy;
  easy.query = ParseQuery(schema, "R(x), S(x,y)");
  easy.db = ParsePartitionedDatabase(schema, "R(a) S(a,b) | S(a,c)");

  ShapleyService service;
  net::ServerOptions server_options;
  server_options.slow_threshold_ms = 1e9;  // Nothing real is this slow.
  net::HttpServer server(&service, server_options);
  server.Start();
  ShapleyClient client("127.0.0.1", server.port());
  int status = 0;
  client.RawCompute(net::EncodeRequest(easy).Dump(), &status);
  EXPECT_EQ(status, 200);

  const std::string body = client.RawGet("/v1/debug/slow", &status);
  server.Stop();
  EXPECT_EQ(status, 200);
  const auto parsed = Json::Parse(body);
  ASSERT_TRUE(parsed.has_value());
  const Json* captured = parsed->Find("captured");
  ASSERT_NE(captured, nullptr);
  EXPECT_EQ(captured->IfUint64().value_or(99), 0u);
  const Json* entries = parsed->Find("entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_TRUE(entries->IfArray() != nullptr && entries->IfArray()->empty());
}

}  // namespace
}  // namespace shapley::obs
