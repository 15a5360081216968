// Statistical coverage of the sampler's certified half-widths. Each fact's
// guarantee reads P(|estimate − Sh(fact)| > its half-width) ≤ δ, so over
// many independent (instance, seed) draws the estimates must land within
// their half-widths in at least a (1 − δ) share of the seeds. The exact
// values come from the paper's subset formula (Equation 2,
// ShapleyValueBySubsets) over the query's wealth table.
//
// Seeds are fixed, so the test is deterministic: it can only regress, never
// flake.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "shapley/approx/sampling.h"
#include "shapley/engines/game.h"
#include "shapley/gen/generators.h"
#include "shapley/query/query_parser.h"

namespace shapley {
namespace {

constexpr size_t kSeeds = 200;
constexpr double kEpsilon = 0.1;
constexpr double kDelta = 0.05;

/// Exact Shapley values of every endogenous fact, in endogenous order.
std::vector<BigRational> ExactValues(const BooleanQuery& query,
                                     const PartitionedDatabase& db) {
  const auto& endo = db.endogenous().facts();
  const size_t n = endo.size();
  std::vector<bool> wealth(size_t{1} << n);
  for (uint64_t mask = 0; mask < wealth.size(); ++mask) {
    Database world = db.exogenous();
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) world.Insert(endo[i]);
    }
    wealth[mask] = query.Evaluate(world);
  }
  const BinaryWealth game = [&](uint64_t mask) { return wealth[mask]; };
  std::vector<BigRational> values;
  for (size_t i = 0; i < n; ++i) {
    values.push_back(ShapleyValueBySubsets(n, game, i));
  }
  return values;
}

TEST(SamplingCoverage, HalfWidthsCoverTheExactValuesInOneMinusDeltaOfSeeds) {
  const char* const queries[] = {"R(x), S(x,y), T(y)", "R(x), S(x,y)",
                                 "R(x), S(x,y) | S(x,y), T(y)"};
  for (ApproxStrategy strategy :
       {ApproxStrategy::kHoeffding, ApproxStrategy::kBernstein,
        ApproxStrategy::kStratified}) {
    size_t covered = 0;
    size_t nontrivial = 0;
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
      auto schema = Schema::Create();
      UcqPtr ucq = ParseUcq(schema, queries[seed % 3]);
      QueryPtr query = ucq->disjuncts().size() == 1
                           ? QueryPtr(ucq->disjuncts()[0])
                           : QueryPtr(ucq);
      RandomDatabaseOptions options;
      options.num_facts = 6 + seed % 7;
      options.domain_size = 3;
      options.exogenous_fraction = 0.25;
      options.seed = 1000 + seed;
      PartitionedDatabase db = RandomPartitionedDatabase(schema, options);
      ASSERT_LE(db.NumEndogenous(), 10u);
      const std::vector<BigRational> exact = ExactValues(*query, db);

      SamplingSvc sampler(ApproxParams{.epsilon = kEpsilon,
                                       .delta = kDelta,
                                       .seed = seed,
                                       .strategy = strategy});
      const std::map<Fact, BigRational> estimate =
          sampler.AllValues(*query, db);
      const ApproxInfo info = sampler.last_info();
      const auto& endo = db.endogenous().facts();
      bool all_within = true;
      for (size_t i = 0; i < endo.size(); ++i) {
        const double error =
            std::abs(estimate.at(endo[i]).ToDouble() - exact[i].ToDouble());
        if (error > info.fact_half_widths[i]) all_within = false;
        if (exact[i] != BigRational(0)) ++nontrivial;
      }
      if (all_within) ++covered;
    }
    SCOPED_TRACE(ToString(strategy));
    // Every seed must certify all of its facts at once, which is at least
    // as strict as the per-fact guarantee.
    EXPECT_GE(static_cast<double>(covered),
              std::ceil((1.0 - kDelta) * static_cast<double>(kSeeds)))
        << covered << " of " << kSeeds << " seeds covered";
    // The instances are not degenerate: most facts carry a nonzero value.
    EXPECT_GT(nontrivial, kSeeds);
  }
}

}  // namespace
}  // namespace shapley
