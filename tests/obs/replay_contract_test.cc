// The replay contract versus telemetry, pinned without timing: a seeded
// sampled request is a pure function of (request bytes, seed), so its
// canonical response (obs/replay.h: CanonicalResponseBody) must be
// byte-identical on fresh servers of ANY pool size, and again on a warm
// rerun against the same server.
//
// Contract (survives canonicalization, must match bit for bit):
//   mode, status, verdict, engine, routed_by_classifier, values, ranked,
//   error, and every "approx" member — epsilon, delta, seed, samples,
//   half_width, confidence, range, strategy, hoeffding_baseline,
//   checkpoints, facts_retired, fact_ranges, fact_samples,
//   fact_half_widths.
// Telemetry (volatile, stripped by canonicalization):
//   "stats" — queue_ms, exec_ms, and memo_hits on estimates (SatMemo hits
//   depend on which parallel batch inserts a coalition first and on how
//   warm the memo already is) — and "trace".
//
// The request runs a non-monotone query, which the sampler decides through
// the SatMemo (monotone ones are decided by lineage masks and report no
// memo hits at all). The warm rerun reports MORE memo hits than the cold
// run, deterministically (every coalition the cold run evaluated is
// memoized by then), so a count that leaked into the canonical form fails
// here on every run. The same check runs again with every core kept busy by
// CPU burners: the contract must not depend on how the scheduler
// interleaves the pool's batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "shapley/data/parser.h"
#include "shapley/net/client.h"
#include "shapley/net/codec.h"
#include "shapley/net/json.h"
#include "shapley/net/server.h"
#include "shapley/obs/replay.h"
#include "shapley/query/query_parser.h"
#include "shapley/service/shapley_service.h"

namespace shapley::obs {
namespace {

using net::Json;

/// The memo-hit telemetry of a raw response body, read through the
/// response decoder (nullopt if the body is not an estimate).
std::optional<size_t> MemoHits(const std::string& raw,
                               const std::shared_ptr<Schema>& schema) {
  std::optional<Json> json = Json::Parse(raw);
  if (!json.has_value()) return std::nullopt;
  SvcResponse response;
  if (net::DecodeResponse(*json, schema, &response).has_value() ||
      !response.approx.has_value()) {
    return std::nullopt;
  }
  return response.approx->memo_hits;
}

/// Serves one seeded sampled request cold and warm on fresh servers of 1,
/// 2 and 8 pool threads, and requires one canonical response throughout
/// while the memo-hit telemetry grows from cold to warm.
void ExpectCanonicalAcrossPoolSizesAndWarmMemo() {
  auto schema = Schema::Create();
  SvcRequest sampled;
  sampled.query = ParseUcq(schema, "S(x,y), R(x), !R(y)")->disjuncts()[0];
  sampled.db = ParsePartitionedDatabase(
      schema, "R(a) R(b) S(a,b) S(b,c) S(a,c) T(b) T(c) S(c,a) | R(c) T(a)");
  sampled.engine = "sampling";
  sampled.approx.epsilon = 0.1;  // Several 32-permutation batches.
  sampled.approx.seed = 23;
  const std::string body = net::EncodeRequest(sampled).Dump();

  std::optional<std::string> reference;
  for (size_t threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ServiceOptions service_options;
    service_options.threads = threads;
    ShapleyService service(service_options);
    net::HttpServer server(&service, {});
    server.Start();
    net::ShapleyClient client("127.0.0.1", server.port());

    int status = 0;
    const std::string cold = client.RawCompute(body, &status);
    EXPECT_EQ(status, 200);
    const std::string warm = client.RawCompute(body, &status);
    EXPECT_EQ(status, 200);
    server.Stop();

    // The telemetry really does differ: the rerun hits the warm memo.
    const std::optional<size_t> cold_hits = MemoHits(cold, schema);
    const std::optional<size_t> warm_hits = MemoHits(warm, schema);
    ASSERT_TRUE(cold_hits.has_value()) << cold;
    ASSERT_TRUE(warm_hits.has_value()) << warm;
    EXPECT_GT(*warm_hits, *cold_hits);

    // The contract does not.
    const std::string canonical = CanonicalResponseBody(cold);
    EXPECT_EQ(CanonicalResponseBody(warm), canonical);
    if (!reference.has_value()) reference = canonical;
    EXPECT_EQ(canonical, *reference);
  }
  ASSERT_TRUE(reference.has_value());
  EXPECT_NE(reference->find("\"approx\":{"), std::string::npos) << *reference;
}

TEST(ReplayContract, SampledResponseIsCanonicalAcrossPoolSizesAndWarmMemo) {
  ExpectCanonicalAcrossPoolSizesAndWarmMemo();
}

/// Spinning threads that keep cores busy for their lifetime; joined on
/// destruction, on every exit path of the test.
class CpuBurners {
 public:
  explicit CpuBurners(unsigned count) {
    for (unsigned i = 0; i < count; ++i) {
      threads_.emplace_back([this] {
        volatile uint64_t sink = 0;
        while (!stop_.load(std::memory_order_relaxed)) sink = sink + 1;
      });
    }
  }
  CpuBurners(const CpuBurners&) = delete;
  CpuBurners& operator=(const CpuBurners&) = delete;
  ~CpuBurners() {
    stop_.store(true);
    for (std::thread& thread : threads_) thread.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

TEST(ReplayContract, SampledResponseIsCanonicalUnderCpuLoad) {
  // One burner per core (at most 4), so pool workers are preempted
  // mid-batch and batches finish in scrambled orders.
  CpuBurners burners(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  ExpectCanonicalAcrossPoolSizesAndWarmMemo();
}

}  // namespace
}  // namespace shapley::obs
