#include "layers.h"

#include <algorithm>

#include "shapley/analysis/classifier.h"
#include "shapley/cluster/shard_map.h"
#include "shapley/engines/fgmc.h"
#include "shapley/net/codec.h"
#include "shapley/net/http.h"
#include "shapley/net/json.h"
#include "shapley/obs/flight.h"
#include "shapley/service/engine_registry.h"

namespace perfbench {

using shapley::SvcRequest;
using shapley::SvcResponse;
using shapley::net::Json;

namespace {

constexpr size_t kProbeInputs = 24;  ///< Workload inputs the probes replay.
constexpr int kMicroRounds = 20;     ///< Repeats of each us-scale call.
constexpr int kRounds = 3;           ///< Repeats of each ms-scale call.

const char* const kNet =
    "latency_p50_ms, cpu_ms_per_op, open_p99_ms @ front_repeat; none @ "
    "engine_*";
const char* const kService =
    "throughput_rps @ front_repeat, engine_exact; open_p99_ms @ front_repeat";
const char* const kCluster =
    "latency_p50_ms, latency_p99_ms @ fleet_batch; none elsewhere";
const char* const kEngines =
    "throughput_rps, cpu_ms_per_op @ engine_exact; ~none @ front_repeat";
const char* const kExec =
    "throughput_rps @ front_repeat (hits); none @ engine_exact (misses)";
const char* const kApprox = "throughput_rps, latency_p99_ms @ engine_sampled";
const char* const kObs = "cpu_ms_per_op @ front_repeat";
const char* const kTrace = "none: the cost of this benchmark's own spans";

/// Times `f` as one span named `name`; returns its duration in us.
template <typename F>
double Span(SpanLog& spans, const char* name, F&& f) {
  spans.Begin(name, 0);
  f();
  return static_cast<double>(spans.End()) / 1000.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string HttpBytes(const std::string& body) {
  return "POST /v1/compute HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Samples of one metric, reduced to their mean.
struct Samples {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
  double mean() const { return Mean(values); }
  size_t size() const { return values.size(); }
};

}  // namespace

ServiceTotals SumServiceStats(Workload& workload) {
  ServiceTotals t;
  for (shapley::ShapleyService* service : workload.Services()) {
    const shapley::ServiceStats s = service->Stats();
    t.completed += s.requests_completed;
    t.failed += s.requests_failed;
    t.verdict_hits += s.verdict_cache_hits;
    t.verdict_misses += s.verdict_cache_misses;
    t.pool_tasks += s.pool_tasks_executed;
    t.cache_hits += s.cache_hits;
    t.cache_misses += s.cache_misses;
    t.cache_evictions += s.cache_evictions;
    t.cache_bytes += s.cache_bytes;
  }
  return t;
}

std::vector<Metric> MeasureLayers(
    Workload& workload, const std::shared_ptr<shapley::Schema>& schema,
    uint64_t seed, const ServiceTotals& before, const ServiceTotals& after,
    const Phase& untraced, const Phase& traced, Tally& tally,
    SpanLog& spans) {
  const WorkloadConfig& config = workload.config();

  // The probe set: the workload's first inputs (those with a reference
  // answer), plus one generated input of each kind the workload lacks, so
  // every layer is measured on every workload.
  std::vector<const Instance*> probe;
  std::vector<const SvcResponse*> probe_ref;
  for (size_t i = 0; i < workload.references().size() && i < kProbeInputs;
       ++i) {
    probe.push_back(&workload.inputs()[i]);
    probe_ref.push_back(&workload.references()[i]);
  }
  std::vector<Instance> extra;
  extra.reserve(3);
  auto has = [&](auto pred) {
    return std::any_of(probe.begin(), probe.end(),
                       [&](const Instance* i) { return pred(i->shape); });
  };
  if (!has([](Shape s) { return IsLifted(s); })) {
    extra.push_back(MakeInstance(schema, Shape::kSmallLifted, seed, "c", 0,
                                 config.knobs));
  }
  if (!has([](Shape s) { return !IsLifted(s) && !IsSampled(s); })) {
    extra.push_back(MakeInstance(schema, Shape::kSmallBrute, seed, "c", 1,
                                 config.knobs));
  }
  if (!has([](Shape s) { return IsSampled(s); })) {
    extra.push_back(
        MakeInstance(schema, Shape::kSampled, seed, "c", 2, SamplingKnobs{}));
  }
  for (const Instance& instance : extra) {
    probe.push_back(&instance);
    probe_ref.push_back(nullptr);
  }

  // A probe front with the workload's service budget serves the in-process
  // and HTTP calls of the probes.
  ServingStack front(config.service_threads,
                     std::max<size_t>(1, config.dispatch_threads));
  shapley::net::ShapleyClient client("127.0.0.1", front.server.port());

  Samples http_parse, json_parse, json_dump, codec_decode, codec_encode;
  Samples request_bytes, response_bytes, classify, shard_key, rank, retag;
  Samples flight_record, round_trip, in_process;
  std::unique_ptr<FleetStack> probe_fleet;
  FleetStack* fleet = workload.Fleet();
  if (fleet == nullptr) {
    probe_fleet = std::make_unique<FleetStack>(2, 1, 1, 2);
    fleet = probe_fleet.get();
  }
  const shapley::cluster::ShardMap& shard_map = fleet->router->shard_map();
  shapley::obs::FlightRecorder recorder(1024);

  for (size_t p = 0; p < probe.size(); ++p) {
    const SvcRequest& request = probe[p]->request;
    SvcResponse answer = front.service.Compute(request);
    tally.Record(*probe[p], probe_ref[p], answer);
    const std::string body = shapley::net::EncodeRequest(request).Dump();
    const std::string bytes = HttpBytes(body);
    const Json encoded_answer =
        shapley::net::EncodeResponse(answer, *request.db.schema());
    Json line;
    line.Set("id", Json::Number(uint64_t{p}));
    for (const auto& [key, value] : *encoded_answer.IfObject()) {
      line.Set(key, value);
    }
    const std::string line_text = line.Dump();
    const std::string key = shapley::cluster::ShardKeyFor(request);
    request_bytes.Add(static_cast<double>(body.size()));
    response_bytes.Add(static_cast<double>(encoded_answer.Dump().size()));

    for (int round = 0; round < kMicroRounds; ++round) {
      shapley::net::HttpRequestParser parser(size_t{64} << 20);
      size_t consumed = 0;
      shapley::net::HttpParseStatus status{};
      http_parse.Add(Span(spans, "net.http_parse", [&] {
        status = parser.Consume(bytes, &consumed);
      }));
      if (status != shapley::net::HttpParseStatus::kDone) {
        tally.Fail("probe request did not parse as HTTP");
      }
      std::optional<Json> parsed;
      json_parse.Add(
          Span(spans, "net.json_parse", [&] { parsed = Json::Parse(body); }));
      shapley::net::DecodedRequest decoded;
      std::optional<shapley::SvcError> error;
      codec_decode.Add(Span(spans, "net.codec_decode", [&] {
        error = shapley::net::DecodeRequest(*parsed, &decoded);
      }));
      if (error.has_value()) tally.Fail("probe request did not decode");
      std::optional<Json> encoded;
      codec_encode.Add(Span(spans, "net.codec_encode", [&] {
        encoded = shapley::net::EncodeResponse(answer, *request.db.schema());
      }));
      std::string dumped;
      json_dump.Add(
          Span(spans, "net.json_dump", [&] { dumped = encoded->Dump(); }));
      classify.Add(Span(spans, "service.classify", [&] {
        shapley::ClassifySvcComplexity(*request.query);
      }));
      std::string k;
      shard_key.Add(Span(spans, "cluster.shard_key",
                         [&] { k = shapley::cluster::ShardKeyFor(request); }));
      rank.Add(Span(spans, "cluster.rank", [&] { shard_map.Rank(key); }));
      retag.Add(Span(spans, "cluster.retag", [&] {
        shapley::cluster::RetagNdjsonLine(line_text, p + 1);
      }));
      shapley::obs::FlightDigest digest;
      digest.target = "/v1/compute";
      digest.shard_key_hash = shapley::cluster::StableHash64(key);
      digest.engine = answer.engine;
      digest.mode = "all";
      digest.strategy = answer.approx ? answer.approx->strategy : "exact";
      digest.status = 200;
      digest.samples = answer.approx ? answer.approx->samples : 0;
      flight_record.Add(Span(spans, "obs.flight_record",
                             [&] { recorder.Record(std::move(digest)); }));
    }
  }

  // Transport: the HTTP round trip minus the in-process Compute of the same
  // request on the same (warm) service.
  for (size_t p = 0; p < probe.size(); ++p) {
    int status = 0;
    client.RawCompute(shapley::net::EncodeRequest(probe[p]->request).Dump(),
                      &status);
  }
  for (int round = 0; round < kRounds; ++round) {
    for (size_t p = 0; p < probe.size(); ++p) {
      const std::string body =
          shapley::net::EncodeRequest(probe[p]->request).Dump();
      int status = 0;
      round_trip.Add(Span(spans, "net.round_trip",
                          [&] { client.RawCompute(body, &status); }));
      if (status != 200) tally.Fail("probe HTTP status " + std::to_string(status));
      in_process.Add(Span(spans, "service.compute_in_process", [&] {
        front.service.Compute(probe[p]->request);
      }));
    }
  }

  // Service overhead, engines and the paper's SVC/FGMC ratio, on the exact
  // probes: cache-off Compute against the engine called directly.
  shapley::ShapleyService uncached(
      shapley::ServiceOptions{.threads = 1, .use_cache = false});
  const shapley::EngineRegistry registry = shapley::EngineRegistry::Default();
  Samples compute_uncached, direct_all, lifted_ms, brute_ms, fgmc_full,
      fgmc_delta, svc_over_fgmc, oracle_calls;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t p = 0; p < probe.size(); ++p) {
      const Instance& instance = *probe[p];
      if (IsSampled(instance.shape)) continue;
      const shapley::BooleanQuery& q = *instance.request.query;
      const shapley::PartitionedDatabase& db = instance.request.db;
      const bool lifted = IsLifted(instance.shape);
      SvcResponse served;
      compute_uncached.Add(Span(spans, "service.compute_uncached", [&] {
        served = uncached.Compute(instance.request);
      }));
      tally.Record(instance, probe_ref[p], served);
      std::shared_ptr<shapley::SvcEngine> engine =
          registry.Create(lifted ? "lifted" : "brute");
      const double all_us = Span(
          spans, lifted ? "engines.lifted" : "engines.brute",
          [&] { engine->AllValues(q, db); });
      direct_all.Add(all_us);
      (lifted ? lifted_ms : brute_ms).Add(all_us / 1000.0);
      if (!lifted) continue;
      const auto* via = dynamic_cast<shapley::SvcViaFgmc*>(engine.get());
      const size_t calls = via != nullptr ? via->oracle_calls() : 0;
      oracle_calls.Add(static_cast<double>(calls));
      if (calls != 1 + db.NumEndogenous()) {
        tally.Fail("lifted AllValues made " + std::to_string(calls) +
                   " counting calls, not 1+|Dn|");
      }
      shapley::LiftedFgmc oracle;
      double counts_us = Span(spans, "engines.fgmc_full",
                              [&] { oracle.CountBySize(q, db); });
      fgmc_full.Add(counts_us / 1000.0);
      for (const shapley::Fact& fact : db.endogenous().facts()) {
        const shapley::PartitionedDatabase without =
            db.WithEndogenousFactRemoved(fact);
        const double us = Span(spans, "engines.fgmc_delta",
                               [&] { oracle.CountBySize(q, without); });
        fgmc_delta.Add(us / 1000.0);
        counts_us += us;
      }
      svc_over_fgmc.Add(Ratio(all_us, counts_us));
    }
  }

  // Fleet hop: a router batch against the slowest direct sub-batch to the
  // backend the router would pick.
  std::vector<SvcRequest> batch;
  for (const Instance* instance : probe) batch.push_back(instance->request);
  std::vector<std::vector<SvcRequest>> direct(fleet->backends.size());
  for (const SvcRequest& request : batch) {
    const std::vector<size_t> order =
        shard_map.Rank(shapley::cluster::ShardKeyFor(request));
    direct[order.at(0)].push_back(request);
  }
  shapley::net::ShapleyClient router_client("127.0.0.1",
                                            fleet->router->port());
  std::vector<std::unique_ptr<shapley::net::ShapleyClient>> backend_clients;
  for (auto& backend : fleet->backends) {
    backend_clients.push_back(std::make_unique<shapley::net::ShapleyClient>(
        "127.0.0.1", backend->server.port()));
  }
  Samples hop;
  for (int round = 0; round <= kRounds; ++round) {
    std::vector<SvcResponse> routed;
    const double router_us = Span(spans, "cluster.router_batch", [&] {
      routed = router_client.ComputeBatch(batch);
    });
    for (size_t p = 0; p < probe.size() && p < routed.size(); ++p) {
      tally.Record(*probe[p], probe_ref[p], routed[p]);
    }
    if (routed.size() != probe.size()) tally.Fail("router batch lost items");
    double slowest_us = 0.0;
    for (size_t b = 0; b < direct.size(); ++b) {
      if (direct[b].empty()) continue;
      slowest_us = std::max(
          slowest_us, Span(spans, "cluster.direct_batch", [&] {
            backend_clients[b]->ComputeBatch(direct[b]);
          }));
    }
    if (round > 0) hop.Add((router_us - slowest_us) / 1000.0);  // 0 warms.
  }
  size_t routed_max = 0, routed_sum = 0, retried = 0, failed = 0;
  for (size_t b = 0; b < fleet->backends.size(); ++b) {
    const shapley::cluster::BackendChannel* channel = fleet->router->backend(b);
    routed_max = std::max(routed_max, channel->routed());
    routed_sum += channel->routed();
    retried += channel->retried();
    failed += channel->failed();
  }
  const double routed_mean = static_cast<double>(routed_sum) /
                             static_cast<double>(fleet->backends.size());

  // Sampler telemetry: the workload's own estimates, else the probe's.
  Tally sampled;
  sampled.Merge(untraced.tally);
  sampled.Merge(traced.tally);
  if (sampled.sampled == 0) {
    Tally probe_tally;
    for (size_t p = 0; p < probe.size(); ++p) {
      if (IsSampled(probe[p]->shape)) {
        shapley::ShapleyService cold(shapley::ServiceOptions{
            .threads = config.service_threads});
        probe_tally.Record(*probe[p], probe_ref[p],
                           cold.Compute(probe[p]->request));
      }
    }
    tally.Merge(probe_tally);
    sampled = probe_tally;
  }

  // Servers of the workload, else the probe front.
  std::vector<shapley::net::HttpServer*> servers = workload.Servers();
  if (servers.empty()) servers.push_back(&front.server);
  size_t rejected = 0, dropped = 0;
  for (shapley::net::HttpServer* server : servers) {
    rejected += server->connections_rejected();
    if (server->debug_deck() != nullptr) {
      dropped += server->debug_deck()->flight.dropped();
    }
  }

  const double verdicts = static_cast<double>(
      (after.verdict_hits - before.verdict_hits) +
      (after.verdict_misses - before.verdict_misses));
  const double lookups = static_cast<double>(
      (after.cache_hits - before.cache_hits) +
      (after.cache_misses - before.cache_misses));
  const double completed = static_cast<double>(after.completed - before.completed);
  Tally loops;
  loops.Merge(untraced.tally);
  loops.Merge(traced.tally);
  const double untraced_ms = Mean(untraced.latency_ms);
  const double traced_ms = Mean(traced.latency_ms);
  const double served = static_cast<double>(sampled.sampled);

  auto m = [](std::string name, std::string unit, double value, size_t n,
              const char* moves) {
    return Metric{std::move(name), std::move(unit), value, n, moves};
  };
  return {
      m("net.http_parse_us", "us", http_parse.mean(), http_parse.size(), kNet),
      m("net.json_parse_us", "us", json_parse.mean(), json_parse.size(), kNet),
      m("net.json_dump_us", "us", json_dump.mean(), json_dump.size(), kNet),
      m("net.codec_decode_us", "us", codec_decode.mean(), codec_decode.size(),
        kNet),
      m("net.codec_encode_us", "us", codec_encode.mean(), codec_encode.size(),
        kNet),
      m("net.transport_us", "us", round_trip.mean() - in_process.mean(),
        round_trip.size(), kNet),
      m("net.request_bytes", "bytes", request_bytes.mean(),
        request_bytes.size(), kNet),
      m("net.response_bytes", "bytes", response_bytes.mean(),
        response_bytes.size(), kNet),
      m("net.connections_rejected", "count", static_cast<double>(rejected),
        servers.size(), kNet),
      m("service.classify_us", "us", classify.mean(), classify.size(),
        kService),
      m("service.verdict_hit_ratio", "ratio",
        Ratio(static_cast<double>(after.verdict_hits - before.verdict_hits),
              verdicts),
        static_cast<size_t>(verdicts), kService),
      m("service.queue_ms", "ms", Ratio(loops.queue_ms, loops.timed),
        loops.timed, kService),
      m("service.exec_ms", "ms", Ratio(loops.exec_ms, loops.timed),
        loops.timed, kService),
      m("service.overhead_us", "us", compute_uncached.mean() - direct_all.mean(),
        compute_uncached.size(), kService),
      m("service.requests_failed", "count",
        static_cast<double>(after.failed - before.failed),
        static_cast<size_t>(completed), kService),
      m("cluster.shard_key_us", "us", shard_key.mean(), shard_key.size(),
        kCluster),
      m("cluster.rank_us", "us", rank.mean(), rank.size(), kCluster),
      m("cluster.retag_us", "us", retag.mean(), retag.size(), kCluster),
      m("cluster.hop_ms", "ms", Median(hop.values), hop.size(), kCluster),
      m("cluster.imbalance", "ratio",
        Ratio(static_cast<double>(routed_max), routed_mean),
        fleet->backends.size(), kCluster),
      m("cluster.retried", "count", static_cast<double>(retried), routed_sum,
        kCluster),
      m("cluster.failed", "count", static_cast<double>(failed), routed_sum,
        kCluster),
      m("engines.lifted_ms", "ms", lifted_ms.mean(), lifted_ms.size(),
        kEngines),
      m("engines.brute_ms", "ms", brute_ms.mean(), brute_ms.size(), kEngines),
      m("engines.fgmc_full_ms", "ms", fgmc_full.mean(), fgmc_full.size(),
        kEngines),
      m("engines.fgmc_delta_ms", "ms", fgmc_delta.mean(), fgmc_delta.size(),
        kEngines),
      m("engines.svc_over_fgmc", "ratio", svc_over_fgmc.mean(),
        svc_over_fgmc.size(), kEngines),
      m("engines.oracle_calls_per_op", "count", oracle_calls.mean(),
        oracle_calls.size(), kEngines),
      m("exec.cache_hit_ratio", "ratio",
        Ratio(static_cast<double>(after.cache_hits - before.cache_hits),
              lookups),
        static_cast<size_t>(lookups), kExec),
      m("exec.cache_evictions", "count",
        static_cast<double>(after.cache_evictions - before.cache_evictions),
        static_cast<size_t>(lookups), kExec),
      m("exec.cache_bytes", "bytes", static_cast<double>(after.cache_bytes),
        workload.Services().size(), kExec),
      m("exec.pool_tasks_per_op", "count",
        Ratio(static_cast<double>(after.pool_tasks - before.pool_tasks),
              completed),
        static_cast<size_t>(completed), kExec),
      m("approx.samples_per_op", "count", Ratio(sampled.samples, served),
        sampled.sampled, kApprox),
      m("approx.checkpoints_per_op", "count",
        Ratio(sampled.checkpoints, served), sampled.sampled, kApprox),
      m("approx.us_per_sample", "us",
        Ratio(1000.0 * sampled.sampled_exec_ms, sampled.samples),
        sampled.sampled, kApprox),
      m("approx.samples_over_hoeffding", "ratio",
        Ratio(sampled.samples, sampled.hoeffding), sampled.sampled, kApprox),
      m("approx.memo_hits_per_op", "count", Ratio(sampled.memo_hits, served),
        sampled.sampled, kApprox),
      m("obs.flight_record_us", "us", flight_record.mean(),
        flight_record.size(), kObs),
      m("obs.flight_dropped", "count", static_cast<double>(dropped),
        servers.size(), kObs),
      m("trace.overhead_us", "us", 1000.0 * (traced_ms - untraced_ms),
        traced.latency_ms.size(), kTrace),
      m("trace.overhead_pct", "%",
        100.0 * Ratio(traced_ms - untraced_ms, untraced_ms),
        traced.latency_ms.size(), kTrace),
  };
}

}  // namespace perfbench
