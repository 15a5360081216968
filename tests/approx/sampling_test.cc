#include "shapley/approx/sampling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "shapley/approx/rng.h"
#include "shapley/approx/stopping.h"
#include "shapley/automata/regex.h"
#include "shapley/data/parser.h"
#include "shapley/engines/svc.h"
#include "shapley/exec/oracle_cache.h"
#include "shapley/exec/thread_pool.h"
#include "shapley/gen/generators.h"
#include "shapley/query/path_query.h"
#include "shapley/query/query_parser.h"

namespace shapley {
namespace {

QueryPtr ParseQuery(const std::shared_ptr<Schema>& schema, const char* text) {
  UcqPtr ucq = ParseUcq(schema, text);
  if (ucq->disjuncts().size() == 1) return ucq->disjuncts()[0];
  return ucq;
}

PartitionedDatabase RandomDb(const std::shared_ptr<Schema>& schema,
                             uint64_t seed, size_t num_facts = 9) {
  RandomDatabaseOptions options;
  options.num_facts = num_facts;
  options.domain_size = 3;
  options.exogenous_fraction = 0.25;
  options.seed = seed;
  return RandomPartitionedDatabase(schema, options);
}

double MaxAbsError(const std::map<Fact, BigRational>& estimate,
                   const std::map<Fact, BigRational>& exact) {
  EXPECT_EQ(estimate.size(), exact.size());
  double worst = 0.0;
  for (const auto& [fact, value] : estimate) {
    worst = std::max(worst,
                     std::abs(value.ToDouble() - exact.at(fact).ToDouble()));
  }
  return worst;
}

TEST(SamplingTest, HoeffdingSampleCountMatchesTheBound) {
  // m = ceil(r² ln(2/δ) / (2ε²)).
  EXPECT_EQ(HoeffdingSamples(0.1, 0.05, 1.0),
            static_cast<size_t>(std::ceil(std::log(40.0) / 0.02)));
  EXPECT_EQ(HoeffdingSamples(0.1, 0.05, 2.0),
            static_cast<size_t>(std::ceil(4.0 * std::log(40.0) / 0.02)));
  // The half-width at exactly the derived count certifies ≤ ε.
  const size_t m = HoeffdingSamples(0.05, 0.01, 1.0);
  EXPECT_LE(HoeffdingHalfWidth(m, 0.01, 1.0), 0.05);
  EXPECT_GT(HoeffdingHalfWidth(m - 1, 0.01, 1.0), 0.05);
  // Counts beyond size_t saturate instead of wrapping through the
  // double→integer cast (the sample guard then refuses them).
  EXPECT_EQ(HoeffdingSamples(1e-10, 0.05, 1.0),
            std::numeric_limits<size_t>::max());
}

TEST(SamplingTest, SplitMixBoundedDrawsAreInRangeAndDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t bound = 1 + (static_cast<uint64_t>(i) % 17);
    const uint64_t draw = a.NextBelow(bound);
    EXPECT_LT(draw, bound);
    EXPECT_EQ(draw, b.NextBelow(bound));
  }
  EXPECT_NE(MixSeed(1, 0), MixSeed(1, 1));
  EXPECT_NE(MixSeed(1, 0), MixSeed(2, 0));
}

// The cross-validation contract: on instances small enough for the exact
// engines, the sampler's estimate lands within its own reported half-width
// of the exact value, for every fact and across ≥ 3 seeds. Fixed seeds
// make this fully deterministic — it can never flake, only regress.
TEST(SamplingTest, EstimatesWithinReportedHalfWidthOfExactAcrossSeeds) {
  auto schema = Schema::Create();
  QueryPtr monotone = ParseQuery(schema, "R(x), S(x,y), T(y)");
  QueryPtr negated = ParseQuery(schema, "R(x), S(x,y), !T(y)");
  BruteForceSvc exact;

  for (const QueryPtr& query : {monotone, negated}) {
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
      PartitionedDatabase db = RandomDb(schema, 17 + seed);
      std::map<Fact, BigRational> reference = exact.AllValues(*query, db);

      SamplingSvc sampler(
          ApproxParams{.epsilon = 0.1, .delta = 0.05, .seed = seed});
      std::map<Fact, BigRational> estimate = sampler.AllValues(*query, db);

      const ApproxInfo& info = sampler.last_info();
      EXPECT_EQ(info.seed, seed);
      // Ranges are per fact, not per request: !T(y) makes T-facts
      // anti-monotone (marginal {−1, 0}) and leaves R/S-facts monotone
      // (marginal {0, 1}) — every spread is 1, and the request budget
      // covers the widest fact, not a query-level "has negation" tax.
      const std::vector<double> ranges = PerFactMarginalRanges(*query, db);
      EXPECT_EQ(info.range,
                *std::max_element(ranges.begin(), ranges.end()));
      EXPECT_EQ(info.fact_ranges, ranges);
      EXPECT_LE(info.half_width, 0.1 + 1e-12);
      EXPECT_GE(info.samples,
                HoeffdingSamples(0.1, 0.05, info.range));
      EXPECT_EQ(info.strategy, "hoeffding");
      EXPECT_LE(MaxAbsError(estimate, reference), info.half_width)
          << "query " << query->ToString() << " seed " << seed;
    }
  }
}

// Identical seeds must reproduce identical estimates bit for bit — and the
// guarantee extends across thread counts: batches own their RNG streams
// and merge with commutative integer addition, so parallel scheduling
// cannot leak into the values.
TEST(SamplingTest, IdenticalSeedsReproduceIdenticalEstimates) {
  auto schema = Schema::Create();
  QueryPtr query = ParseQuery(schema, "R(x), S(x,y), T(y)");
  PartitionedDatabase db = RandomDb(schema, 5, 12);
  const ApproxParams params{.epsilon = 0.05, .delta = 0.05, .seed = 99};

  SamplingSvc first(params);
  SamplingSvc second(params);
  std::map<Fact, BigRational> serial = first.AllValues(*query, db);
  EXPECT_EQ(serial, second.AllValues(*query, db));

  ThreadPool pool(4);
  SamplingSvc parallel(params);
  parallel.set_exec_context(ExecContext{&pool, nullptr});
  EXPECT_EQ(serial, parallel.AllValues(*query, db));

  // A different seed is a different (equally valid) estimate; the info
  // block still reports the same contract.
  SamplingSvc other(ApproxParams{.epsilon = 0.05, .delta = 0.05, .seed = 7});
  other.AllValues(*query, db);
  EXPECT_EQ(other.last_info().samples, first.last_info().samples);
}

TEST(SamplingTest, SampleBudgetCapWidensTheReportedHalfWidth) {
  auto schema = Schema::Create();
  QueryPtr query = ParseQuery(schema, "R(x), S(x,y)");
  PartitionedDatabase db = RandomDb(schema, 3);

  SamplingSvc capped(ApproxParams{
      .epsilon = 0.01, .delta = 0.05, .seed = 1, .max_samples = 64});
  capped.AllValues(*query, db);
  EXPECT_EQ(capped.last_info().samples, 64u);
  // 64 samples cannot certify ε = 0.01; the response says so.
  EXPECT_GT(capped.last_info().half_width, 0.01);
  EXPECT_NEAR(capped.last_info().half_width,
              HoeffdingHalfWidth(64, 0.05, 1.0), 1e-12);
}

TEST(SamplingTest, SharedSatMemoAmortizesAcrossRequestsViaOracleCache) {
  auto schema = Schema::Create();
  // Non-monotone: lineage masks cannot decide it, so prefixes are
  // evaluated on the world and memoized.
  QueryPtr query = ParseQuery(schema, "S(x,y), R(x), !R(y)");
  PartitionedDatabase db = RandomDb(schema, 11);
  OracleCache cache;

  SamplingSvc sampler(ApproxParams{.epsilon = 0.1, .delta = 0.1, .seed = 4});
  sampler.set_exec_context(ExecContext{nullptr, &cache});
  std::map<Fact, BigRational> first = sampler.AllValues(*query, db);
  // Small prefixes repeat within one run already.
  EXPECT_GT(sampler.last_info().memo_hits, 0u);
  const size_t hits_after_first = sampler.last_info().memo_hits;

  // A fresh engine instance (the service creates one per request) hits the
  // same fingerprint-keyed memo: the second run starts warm.
  SamplingSvc rerun(ApproxParams{.epsilon = 0.1, .delta = 0.1, .seed = 4});
  rerun.set_exec_context(ExecContext{nullptr, &cache});
  EXPECT_EQ(first, rerun.AllValues(*query, db));
  EXPECT_GE(rerun.last_info().memo_hits, hits_after_first);

  // And the memo is a real OracleCache resident: same (query, db) maps to
  // the same table.
  const std::string key = OracleCache::SatTableKey(*query, db);
  EXPECT_EQ(cache.SatTable(key), cache.SatTable(key));
}

// Monotone queries over at most 64 facts decide every prefix coalition by
// lineage bitmasks: no query evaluation, so nothing to memoize — the run
// reports no memo hits and never creates a SatTable entry.
TEST(SamplingTest, MonotoneQueriesDecidePrefixesWithoutTheMemo) {
  auto schema = Schema::Create();
  QueryPtr query = ParseQuery(schema, "R(x), S(x,y), T(y)");
  PartitionedDatabase db = RandomDb(schema, 11);
  OracleCache cache;

  SamplingSvc sampler(ApproxParams{.epsilon = 0.1, .delta = 0.1, .seed = 4});
  sampler.set_exec_context(ExecContext{nullptr, &cache});
  std::map<Fact, BigRational> first = sampler.AllValues(*query, db);
  EXPECT_EQ(sampler.last_info().memo_hits, 0u);
  const OracleCache::TableStats memos = cache.PerTableStats().memos;
  EXPECT_EQ(memos.misses, 0u);
  EXPECT_EQ(memos.hits, 0u);
  EXPECT_EQ(memos.inserts, 0u);
  EXPECT_EQ(cache.size(), 0u);

  // The same estimate without a cache: the cache only ever served memos.
  SamplingSvc uncached(ApproxParams{.epsilon = 0.1, .delta = 0.1, .seed = 4});
  EXPECT_EQ(first, uncached.AllValues(*query, db));
}

// A monotone lineage with more supports than the lineage path admits
// (here 20³ = 8000 clauses over 60 facts) takes the Evaluate + SatMemo
// path instead — the run still completes, through the memo.
TEST(SamplingTest, OversizedLineageFallsBackToTheMemoPath) {
  auto schema = Schema::Create();
  QueryPtr query = ParseQuery(schema, "R(x), S(y), T(z)");
  std::string text;
  for (int i = 0; i < 20; ++i) {
    const std::string c = "c" + std::to_string(i);
    text += "R(" + c + ") S(" + c + ") T(" + c + ") ";
  }
  PartitionedDatabase db = ParsePartitionedDatabase(schema, text);
  ASSERT_EQ(db.NumEndogenous(), 60u);
  OracleCache cache;

  SamplingSvc sampler(ApproxParams{.epsilon = 0.1, .delta = 0.1, .seed = 4});
  sampler.set_exec_context(ExecContext{nullptr, &cache});
  std::map<Fact, BigRational> values = sampler.AllValues(*query, db);
  EXPECT_EQ(values.size(), 60u);
  EXPECT_EQ(cache.PerTableStats().memos.misses, 1u);
  EXPECT_GT(sampler.last_info().memo_hits, 0u);
}

TEST(SamplingTest, ValidatesParamsAndFactEndogeneity) {
  auto schema = Schema::Create();
  QueryPtr query = ParseQuery(schema, "R(x)");
  PartitionedDatabase db = ParsePartitionedDatabase(schema, "R(a) | R(b)");

  SamplingSvc bad_eps(ApproxParams{.epsilon = 0.0});
  EXPECT_THROW(bad_eps.AllValues(*query, db), SvcException);
  SamplingSvc bad_delta(ApproxParams{.epsilon = 0.1, .delta = 1.0});
  EXPECT_THROW(bad_delta.AllValues(*query, db), SvcException);

  // An (ε, δ) whose derived count exceeds the sample guard is refused
  // (structured capacity error) unless a budget caps it.
  SamplingSvc absurd(ApproxParams{.epsilon = 1e-9, .delta = 0.05});
  try {
    absurd.AllValues(*query, db);
    FAIL() << "expected SvcException";
  } catch (const SvcException& e) {
    EXPECT_EQ(e.error().code, SvcErrorCode::kCapacityExceeded);
  }
  SamplingSvc budgeted(ApproxParams{
      .epsilon = 1e-9, .delta = 0.05, .seed = 1, .max_samples = 128});
  EXPECT_EQ(budgeted.AllValues(*query, db).size(), db.NumEndogenous());

  SamplingSvc sampler(ApproxParams{.epsilon = 0.2, .delta = 0.2, .seed = 1});
  const Fact exogenous = db.exogenous().facts()[0];
  EXPECT_THROW(sampler.Value(*query, db, exogenous), SvcException);

  // Empty Dn: a well-formed, trivially empty answer.
  PartitionedDatabase empty = ParsePartitionedDatabase(schema, "| R(a)");
  EXPECT_TRUE(sampler.AllValues(*query, empty).empty());
}

// Between batches the sampler honors cancellation and deadlines — the
// sweep's total work is caller-tunable, so a worker must stay reclaimable
// mid-run, not just at dequeue time.
TEST(SamplingTest, HonorsCancellationAndDeadlineMidRun) {
  auto schema = Schema::Create();
  QueryPtr query = ParseQuery(schema, "R(x), S(x,y), T(y)");
  PartitionedDatabase db = RandomDb(schema, 8);

  SamplingSvc cancelled(ApproxParams{.epsilon = 0.05, .delta = 0.05});
  auto token = std::make_shared<std::atomic<bool>>(true);
  cancelled.set_cancel(token);
  try {
    cancelled.AllValues(*query, db);
    FAIL() << "expected SvcException";
  } catch (const SvcException& e) {
    EXPECT_EQ(e.error().code, SvcErrorCode::kCancelled);
  }
  token->store(false);
  EXPECT_EQ(cancelled.AllValues(*query, db).size(), db.NumEndogenous());

  SamplingSvc late(ApproxParams{.epsilon = 0.05, .delta = 0.05});
  late.set_deadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  try {
    late.AllValues(*query, db);
    FAIL() << "expected SvcException";
  } catch (const SvcException& e) {
    EXPECT_EQ(e.error().code, SvcErrorCode::kDeadlineExceeded);
  }
}

// A monotone path query whose support search would walk exponentially
// many paths: (A|B)* C over 30 layers of parallel A/B edges (60 facts) and
// no C edge has 2^30 walks and not one support. Path queries never take the
// lineage path, so the run evaluates prefixes (a product-graph BFS each)
// and its deadline is checked between batches as usual.
TEST(SamplingTest, LayeredPathQueryHonorsItsDeadline) {
  auto schema = Schema::Create();
  QueryPtr query = RegularPathQuery::Create(
      schema, Regex::Parse("(A|B)* C"), Constant::Named("v0"),
      Constant::Named("t"));
  std::string text;
  for (int i = 0; i < 30; ++i) {
    const std::string edge = "(v" + std::to_string(i) + ",v" +
                             std::to_string(i + 1) + ") ";
    text += "A" + edge + "B" + edge;
  }
  PartitionedDatabase db = ParsePartitionedDatabase(schema, text);
  ASSERT_EQ(db.NumEndogenous(), 60u);

  // A budget of ~74k permutations × 60 evaluations: far beyond the
  // deadline, so the run must end by the deadline check.
  SamplingSvc sampler(ApproxParams{.epsilon = 0.005, .delta = 0.05});
  const auto start = std::chrono::steady_clock::now();
  sampler.set_deadline(start + std::chrono::milliseconds(100));
  try {
    sampler.AllValues(*query, db);
    FAIL() << "expected SvcException";
  } catch (const SvcException& e) {
    EXPECT_EQ(e.error().code, SvcErrorCode::kDeadlineExceeded);
  }
  // The deadline plus at most one batch (32 walks) of overshoot.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
}

// Degenerate but exact cases the sampler must get right regardless of ε:
// when Dx already satisfies a monotone query every value is exactly 0, and
// a single endogenous fact that flips the query has value exactly 1.
TEST(SamplingTest, DegenerateInstancesAreExact) {
  auto schema = Schema::Create();
  QueryPtr query = ParseQuery(schema, "R(x)");

  PartitionedDatabase saturated =
      ParsePartitionedDatabase(schema, "R(a) R(b) | R(c)");
  SamplingSvc sampler(ApproxParams{.epsilon = 0.3, .delta = 0.3, .seed = 2});
  for (const auto& [fact, value] : sampler.AllValues(*query, saturated)) {
    EXPECT_EQ(value, BigRational(0)) << fact.ToString(*schema);
  }

  PartitionedDatabase pivotal = ParsePartitionedDatabase(schema, "R(a)");
  std::map<Fact, BigRational> values = sampler.AllValues(*query, pivotal);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values.begin()->second, BigRational(1));
}

// The per-fact range fix: sample budgets and certified half-widths used to
// be derived once per request from "does the query have negation anywhere",
// charging every fact the range-2 spread. The marginal's spread is a
// property of the FACT's relation polarity: only a relation occurring both
// positively and negated can swing a marginal across two units.
TEST(SamplingTest, PerFactRangesGiveMixedInstancesTheTighterBound) {
  auto schema = Schema::Create();

  // T occurs only negated → T-facts are anti-monotone (spread 1); R/S only
  // positive → monotone (spread 1). Nothing in this query justifies the
  // old per-request range of 2.
  QueryPtr safe_neg = ParseQuery(schema, "R(x), S(x,y), !T(y)");
  PartitionedDatabase pos_endo =
      ParsePartitionedDatabase(schema, "R(a) S(a,b) T(b) R(c)");
  const std::vector<double> all_one = PerFactMarginalRanges(*safe_neg, pos_endo);
  EXPECT_EQ(all_one, std::vector<double>(pos_endo.NumEndogenous(), 1.0));

  // The derived budget follows the per-fact analysis: 4x fewer samples
  // than the per-request range-2 derivation charged for the same query.
  SamplingSvc sampler(ApproxParams{.epsilon = 0.1, .delta = 0.1, .seed = 2});
  sampler.AllValues(*safe_neg, pos_endo);
  EXPECT_EQ(sampler.last_info().samples, HoeffdingSamples(0.1, 0.1, 1.0));
  EXPECT_EQ(sampler.last_info().range, 1.0);

  // A genuinely mixed instance: R occurs under both polarities (range 2),
  // S only positively (range 1). The budget must cover the widest fact,
  // but the S-fact's reported half-width stays twice as tight.
  QueryPtr mixed = ParseQuery(schema, "S(x,y), R(x), !R(y)");
  PartitionedDatabase both =
      ParsePartitionedDatabase(schema, "R(a) S(a,b) R(b) | S(b,c)");
  const auto& endo = both.endogenous().facts();
  const std::vector<double> ranges = PerFactMarginalRanges(*mixed, both);
  ASSERT_EQ(ranges.size(), endo.size());
  bool saw_wide = false, saw_tight = false;
  for (size_t i = 0; i < endo.size(); ++i) {
    SCOPED_TRACE(endo[i].ToString(*schema));
    if (endo[i].ToString(*schema)[0] == 'R') {
      EXPECT_EQ(ranges[i], 2.0);
      saw_wide = true;
    } else {
      EXPECT_EQ(ranges[i], 1.0);
      saw_tight = true;
    }
  }
  ASSERT_TRUE(saw_wide && saw_tight) << "instance must be genuinely mixed";

  SamplingSvc on_mixed(ApproxParams{.epsilon = 0.2, .delta = 0.1, .seed = 3});
  on_mixed.AllValues(*mixed, both);
  const ApproxInfo info = on_mixed.last_info();
  EXPECT_EQ(info.range, 2.0);
  EXPECT_EQ(info.samples, HoeffdingSamples(0.2, 0.1, 2.0));
  for (size_t i = 0; i < endo.size(); ++i) {
    EXPECT_NEAR(info.fact_half_widths[i],
                HoeffdingHalfWidth(info.samples, 0.1, ranges[i]), 1e-12);
  }
}

// Contract regression for the budget-cap path of the ADAPTIVE strategies:
// when max_samples truncates a run before any fact's bound meets ε, every
// fact must report the (wider) half-width its own tallies actually
// certify — honestly per fact, never the requested ε.
TEST(SamplingTest, AdaptiveBudgetCapWidensEveryReportedHalfWidthHonestly) {
  auto schema = Schema::Create();
  QueryPtr query = ParseQuery(schema, "R(x), S(x,y), T(y)");
  PartitionedDatabase db = RandomDb(schema, 21);
  BruteForceSvc exact;
  std::map<Fact, BigRational> reference = exact.AllValues(*query, db);

  for (ApproxStrategy strategy :
       {ApproxStrategy::kBernstein, ApproxStrategy::kStratified}) {
    SCOPED_TRACE(ToString(strategy));
    SamplingSvc capped(ApproxParams{.epsilon = 0.005,
                                    .delta = 0.05,
                                    .seed = 9,
                                    .max_samples = 128,
                                    .strategy = strategy});
    std::map<Fact, BigRational> estimate = capped.AllValues(*query, db);
    const ApproxInfo info = capped.last_info();
    EXPECT_EQ(info.strategy, std::string(ToString(strategy)));
    EXPECT_LE(info.samples, 128u);
    EXPECT_EQ(info.facts_retired, 0u);  // 128 samples cannot certify 0.005.
    ASSERT_EQ(info.fact_half_widths.size(), db.NumEndogenous());
    for (double hw : info.fact_half_widths) {
      EXPECT_GT(hw, 0.005);  // Honestly widened, per fact.
    }
    EXPECT_GT(info.half_width, 0.005);
    // The widened widths are still certificates, not apologies.
    EXPECT_LE(MaxAbsError(estimate, reference), info.half_width);
  }
}

}  // namespace
}  // namespace shapley
