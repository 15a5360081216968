#include "shapley/exec/oracle_cache.h"

#include <gtest/gtest.h>

#include <string>

#include "shapley/approx/sampling.h"
#include "shapley/data/parser.h"
#include "shapley/engines/fgmc.h"
#include "shapley/exec/thread_pool.h"
#include "shapley/lineage/ddnnf.h"
#include "shapley/query/query_parser.h"

namespace shapley {
namespace {

class OracleCacheTest : public ::testing::Test {
 protected:
  std::shared_ptr<Schema> schema_ = Schema::Create();
};

TEST_F(OracleCacheTest, MemoizesCountBySize) {
  CqPtr q = ParseCq(schema_, "R(x), S(x,y)");
  PartitionedDatabase db =
      ParsePartitionedDatabase(schema_, "R(a) S(a,b) S(a,c) | R(d)");

  OracleCache cache;
  BruteForceFgmc oracle;
  Polynomial direct = oracle.CountBySize(*q, db);

  Polynomial first = cache.CountBySize(oracle, *q, db);
  EXPECT_EQ(first, direct);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);

  Polynomial second = cache.CountBySize(oracle, *q, db);
  EXPECT_EQ(second, direct);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(OracleCacheTest, FingerprintSeparatesQueryDatabaseAndPartition) {
  CqPtr q1 = ParseCq(schema_, "R(x), S(x,y)");
  CqPtr q2 = ParseCq(schema_, "R(x)");
  PartitionedDatabase db1 =
      ParsePartitionedDatabase(schema_, "R(a) S(a,b)");
  PartitionedDatabase db2 =
      ParsePartitionedDatabase(schema_, "R(a) S(a,c)");
  // Same facts as db1, but S(a,b) exogenous: the partition must matter.
  PartitionedDatabase db3 = ParsePartitionedDatabase(schema_, "R(a) | S(a,b)");

  const std::string base = OracleCache::Fingerprint("brute-force", *q1, db1);
  EXPECT_NE(OracleCache::Fingerprint("brute-force", *q2, db1), base);
  EXPECT_NE(OracleCache::Fingerprint("brute-force", *q1, db2), base);
  EXPECT_NE(OracleCache::Fingerprint("brute-force", *q1, db3), base);
  EXPECT_NE(OracleCache::Fingerprint("lifted-safe-plan", *q1, db1), base);
  EXPECT_EQ(OracleCache::Fingerprint("brute-force", *q1, db1), base);
}

TEST_F(OracleCacheTest, DistinctEnginesGetDistinctEntries) {
  CqPtr q = ParseCq(schema_, "R(x), S(x,y)");
  PartitionedDatabase db = ParsePartitionedDatabase(schema_, "R(a) S(a,b)");

  OracleCache cache;
  BruteForceFgmc brute;
  LiftedFgmc lifted;
  Polynomial from_brute = cache.CountBySize(brute, *q, db);
  Polynomial from_lifted = cache.CountBySize(lifted, *q, db);
  EXPECT_EQ(from_brute, from_lifted);  // Engines agree...
  EXPECT_EQ(cache.misses(), 2u);       // ...but are keyed separately.
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(OracleCacheTest, SatTableSharesOneMemoPerFingerprint) {
  CqPtr q = ParseCq(schema_, "R(x), S(x,y)");
  PartitionedDatabase db =
      ParsePartitionedDatabase(schema_, "R(a) S(a,b) | R(d)");
  PartitionedDatabase other = ParsePartitionedDatabase(schema_, "R(a) S(a,c)");

  OracleCache cache;
  const std::string key = OracleCache::SatTableKey(*q, db);
  std::shared_ptr<SatMemo> memo = cache.SatTable(key);
  ASSERT_NE(memo, nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  // Same (query, db) → same resident memo; verdicts written through one
  // handle are visible through the other.
  memo->Insert(0b11, true);
  std::shared_ptr<SatMemo> again = cache.SatTable(key);
  EXPECT_EQ(memo, again);
  EXPECT_EQ(cache.hits(), 1u);
  ASSERT_TRUE(again->Lookup(0b11).has_value());
  EXPECT_TRUE(*again->Lookup(0b11));
  EXPECT_FALSE(again->Lookup(0b01).has_value());

  // A different database is a different memo.
  EXPECT_NE(cache.SatTable(OracleCache::SatTableKey(*q, other)), memo);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(OracleCacheTest, MemoizesCompiledCircuits) {
  CqPtr q = ParseCq(schema_, "R(x), S(x,y)");
  PartitionedDatabase db =
      ParsePartitionedDatabase(schema_, "R(a) S(a,b) R(c) S(c,d)");

  OracleCache cache;
  auto circuit1 = cache.Circuit(*q, db, 200000, 2000000);
  auto circuit2 = cache.Circuit(*q, db, 200000, 2000000);
  EXPECT_EQ(circuit1.get(), circuit2.get());  // Same compilation, shared.
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  BruteForceFgmc brute;
  EXPECT_EQ(circuit1->CountBySize(), brute.CountBySize(*q, db));
}

TEST_F(OracleCacheTest, CircuitCacheDrivesLineageFgmc) {
  CqPtr q = ParseCq(schema_, "R(x), S(x,y)");
  PartitionedDatabase db =
      ParsePartitionedDatabase(schema_, "R(a) S(a,b) S(a,c) | S(a,d)");

  BruteForceFgmc brute;
  LineageFgmc lineage;
  OracleCache cache;
  lineage.set_circuit_cache(&cache);
  EXPECT_EQ(lineage.CountBySize(*q, db), brute.CountBySize(*q, db));
  EXPECT_EQ(lineage.CountBySize(*q, db), brute.CountBySize(*q, db));
  EXPECT_EQ(cache.hits(), 1u);
  lineage.set_circuit_cache(nullptr);
}

TEST_F(OracleCacheTest, EvictsLruByCountWhenFull) {
  CqPtr q = ParseCq(schema_, "R(x)");
  OracleCache cache(/*max_entries=*/2);
  BruteForceFgmc oracle;
  for (int i = 0; i < 5; ++i) {
    PartitionedDatabase db = ParsePartitionedDatabase(
        schema_, "R(a" + std::to_string(i) + ")");
    cache.CountBySize(oracle, *q, db);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 5u);
  EXPECT_EQ(cache.evictions(), 3u);

  // The most recent entries survived: re-asking for them hits...
  cache.CountBySize(oracle, *q, ParsePartitionedDatabase(schema_, "R(a4)"));
  cache.CountBySize(oracle, *q, ParsePartitionedDatabase(schema_, "R(a3)"));
  EXPECT_EQ(cache.hits(), 2u);
  // ...and the oldest was evicted: re-asking for it misses again.
  cache.CountBySize(oracle, *q, ParsePartitionedDatabase(schema_, "R(a0)"));
  EXPECT_EQ(cache.misses(), 6u);
}

TEST_F(OracleCacheTest, LruBumpOnHitProtectsHotEntries) {
  CqPtr q = ParseCq(schema_, "R(x)");
  OracleCache cache(/*max_entries=*/2);
  BruteForceFgmc oracle;
  auto count = [&](const std::string& db_text) {
    PartitionedDatabase db = ParsePartitionedDatabase(schema_, db_text);
    cache.CountBySize(oracle, *q, db);
  };
  count("R(a)");  // miss
  count("R(b)");  // miss
  count("R(a)");  // hit: bumps R(a) ahead of R(b)
  count("R(c)");  // miss: evicts R(b), the least recently used
  count("R(a)");  // hit: R(a) survived because it was hot
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 3u);
  count("R(b)");  // miss again: it was the one evicted
  EXPECT_EQ(cache.misses(), 4u);
}

TEST_F(OracleCacheTest, AccountsApproximateBytesAndEvictsBySize) {
  CqPtr q = ParseCq(schema_, "R(x), S(x,y)");
  PartitionedDatabase db =
      ParsePartitionedDatabase(schema_, "R(a) S(a,b) S(a,c)");

  OracleCache cache;
  BruteForceFgmc oracle;
  EXPECT_EQ(cache.bytes_used(), 0u);
  cache.CountBySize(oracle, *q, db);
  const size_t after_polynomial = cache.bytes_used();
  EXPECT_GT(after_polynomial, 0u);

  // Compiled circuits are accounted too — and they dominate polynomials.
  cache.Circuit(*q, db, 200000, 2000000);
  EXPECT_GT(cache.bytes_used(), after_polynomial);

  cache.Clear();
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_EQ(cache.size(), 0u);

  // A tiny byte budget forces LRU-by-size eviction down to one resident
  // entry (a single entry is always admitted so work is never recomputed
  // forever).
  OracleCache tiny(/*max_entries=*/1 << 16, /*max_bytes=*/1);
  for (int i = 0; i < 4; ++i) {
    PartitionedDatabase d = ParsePartitionedDatabase(
        schema_, "R(a" + std::to_string(i) + ")");
    tiny.CountBySize(oracle, *ParseCq(schema_, "R(x)"), d);
    EXPECT_EQ(tiny.size(), 1u);
  }
  EXPECT_EQ(tiny.evictions(), 3u);
}

// SatTable inserts each memo empty; the sampling run that grows it settles
// its real footprint when it ends. Memos of inputs that never repeat must
// therefore still be charged to max_bytes — and evicted once they overrun
// it — without the settle counting as a lookup.
TEST_F(OracleCacheTest, SamplingRunsChargeTheirMemoGrowthToTheByteBudget) {
  QueryPtr q = ParseCq(schema_, "S(x,y), R(x), !R(y)");
  constexpr size_t kMaxBytes = 64 << 10;
  constexpr size_t kInstances = 24;
  OracleCache cache(/*max_entries=*/1 << 16, kMaxBytes);
  for (size_t i = 0; i < kInstances; ++i) {
    // Distinct instances: no memo is ever looked up twice.
    const std::string c = "c" + std::to_string(i);
    PartitionedDatabase db = ParsePartitionedDatabase(
        schema_, "R(a) R(b) R(" + c + ") S(a,b) S(b," + c + ") S(" + c +
                     ",a) S(a,a) S(b,d) | R(d) S(d," + c + ")");
    SamplingSvc sampler(
        ApproxParams{.epsilon = 0.1, .delta = 0.1, .seed = i + 1});
    sampler.set_exec_context(ExecContext{nullptr, &cache});
    sampler.AllValues(*q, db);
    EXPECT_LE(cache.bytes_used(), kMaxBytes) << "after instance " << i;
  }
  const OracleCache::TableStats memos = cache.PerTableStats().memos;
  EXPECT_EQ(memos.misses, kInstances);
  EXPECT_EQ(memos.hits, 0u);  // Settling is not a lookup.
  EXPECT_GT(memos.evictions, 0u);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST_F(OracleCacheTest, ThreadSafeUnderConcurrentMixedAccess) {
  CqPtr q = ParseCq(schema_, "R(x), S(x,y)");
  std::vector<PartitionedDatabase> dbs;
  for (int i = 0; i < 4; ++i) {
    dbs.push_back(ParsePartitionedDatabase(
        schema_, "R(a) S(a,b" + std::to_string(i) + ") S(a,c)"));
  }
  BruteForceFgmc oracle;
  std::vector<Polynomial> expected;
  for (const auto& db : dbs) expected.push_back(oracle.CountBySize(*q, db));

  OracleCache cache;
  ThreadPool pool(4);
  pool.ParallelFor(0, 400, [&](size_t i) {
    const size_t k = i % dbs.size();
    ASSERT_EQ(cache.CountBySize(oracle, *q, dbs[k]), expected[k]);
  });
  EXPECT_EQ(cache.hits() + cache.misses(), 400u);
  EXPECT_GE(cache.hits(), 400u - 2 * dbs.size());
}

}  // namespace
}  // namespace shapley
