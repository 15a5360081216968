#include "shapley/exec/oracle_cache.h"

#include <sstream>
#include <utility>

#include "shapley/data/partitioned_database.h"
#include "shapley/engines/fgmc.h"
#include "shapley/lineage/ddnnf.h"
#include "shapley/lineage/lineage.h"
#include "shapley/query/boolean_query.h"

namespace shapley {

namespace {

// Appends one database part as "|R(3,7) S(7)" using relation names (schemas
// are object-local, names are not) and interned constant ids (process-wide
// canonical). Facts are already sorted and unique inside a Database.
void AppendFacts(std::ostream& os, const Database& part) {
  os << '|';
  const auto& schema = part.schema();
  for (const Fact& fact : part.facts()) {
    os << (schema != nullptr ? schema->name(fact.relation())
                             : std::to_string(fact.relation()))
       << '(';
    for (size_t i = 0; i < fact.args().size(); ++i) {
      if (i > 0) os << ',';
      os << fact.args()[i].id();
    }
    os << ')';
  }
}

// Approximate heap footprint of a count polynomial: per-coefficient object
// overhead plus the magnitude's limb bytes.
size_t ApproxBytes(const Polynomial& p) {
  size_t bytes = sizeof(Polynomial);
  for (const BigInt& c : p.coefficients()) {
    bytes += sizeof(BigInt) + (c.BitLength() + 7) / 8;
  }
  return bytes;
}

}  // namespace

std::string OracleCache::Fingerprint(const std::string& oracle_name,
                                     const BooleanQuery& query,
                                     const PartitionedDatabase& db) {
  std::ostringstream os;
  os << oracle_name << '\x1f' << query.ToString() << '\x1f';
  AppendFacts(os, db.endogenous());
  AppendFacts(os, db.exogenous());
  return os.str();
}

Polynomial OracleCache::CountBySize(FgmcEngine& oracle,
                                    const BooleanQuery& query,
                                    const PartitionedDatabase& db) {
  const std::string key = Fingerprint(oracle.name(), query, db);
  std::shared_ptr<const Polynomial> cached;
  {
    std::lock_guard<std::mutex> lock(counts_.mutex);
    counts_.Lookup(key, clock_.fetch_add(1), &cached);
  }
  if (cached != nullptr) {
    counts_.stats.hits.fetch_add(1, std::memory_order_relaxed);
    return *cached;  // The value copy happens outside the lock.
  }
  counts_.stats.misses.fetch_add(1, std::memory_order_relaxed);
  auto counts =
      std::make_shared<const Polynomial>(oracle.CountBySize(query, db));
  const size_t counts_bytes = ApproxBytes(*counts);
  std::shared_ptr<const Polynomial> resident;
  {
    std::lock_guard<std::mutex> lock(counts_.mutex);
    resident = counts_.Insert(key, std::move(counts), counts_bytes,
                              clock_.fetch_add(1));
  }
  EnforceBudget();
  return *resident;  // Shared-ptr keeps the value alive across eviction.
}

std::shared_ptr<const DdnnfCircuit> OracleCache::Circuit(
    const BooleanQuery& query, const PartitionedDatabase& db,
    size_t support_cap, size_t node_cap) {
  std::string key = Fingerprint("ddnnf", query, db);
  key += '\x1f' + std::to_string(support_cap) + ':' +
         std::to_string(node_cap);
  {
    std::lock_guard<std::mutex> lock(circuits_.mutex);
    std::shared_ptr<const DdnnfCircuit> cached;
    if (circuits_.Lookup(key, clock_.fetch_add(1), &cached)) {
      circuits_.stats.hits.fetch_add(1, std::memory_order_relaxed);
      return cached;
    }
  }
  circuits_.stats.misses.fetch_add(1, std::memory_order_relaxed);
  Lineage lineage = BuildLineage(query, db, support_cap);
  auto circuit =
      std::make_shared<const DdnnfCircuit>(CompileDnf(lineage, node_cap));
  std::shared_ptr<const DdnnfCircuit> resident;
  {
    std::lock_guard<std::mutex> lock(circuits_.mutex);
    resident = circuits_.Insert(std::move(key), circuit,
                                circuit->ApproxBytes(), clock_.fetch_add(1));
  }
  EnforceBudget();
  return resident;
}

std::string OracleCache::SatTableKey(const BooleanQuery& query,
                                     const PartitionedDatabase& db) {
  return Fingerprint("sat-memo", query, db);
}

std::shared_ptr<SatMemo> OracleCache::SatTable(const std::string& key) {
  std::shared_ptr<SatMemo> cached;
  {
    std::lock_guard<std::mutex> lock(memos_.mutex);
    auto it = memos_.index.find(std::string_view(key));
    if (it != memos_.index.end()) {
      memos_.lru.splice(memos_.lru.begin(), memos_.lru, it->second);
      it->second->tick = clock_.fetch_add(1);
      // Memos grow after insertion (unlike the immutable polynomials and
      // circuits), so every access reconciles the budget against the
      // memo's current footprint.
      ReconcileMemoBytes(*it->second);
      cached = it->second->value;
    }
  }
  if (cached != nullptr) {
    memos_.stats.hits.fetch_add(1, std::memory_order_relaxed);
    EnforceBudget();  // The reconciled growth may now exceed the budget.
    return cached;
  }
  memos_.stats.misses.fetch_add(1, std::memory_order_relaxed);
  auto memo = std::make_shared<SatMemo>();
  const size_t memo_bytes = memo->ApproxBytes();
  std::shared_ptr<SatMemo> resident;
  {
    std::lock_guard<std::mutex> lock(memos_.mutex);
    // Concurrent misses race to insert an *empty* memo; losing one is
    // free (no computed work is discarded, unlike the counting tables).
    resident = memos_.Insert(key, std::move(memo), memo_bytes,
                             clock_.fetch_add(1));
  }
  EnforceBudget();
  return resident;
}

void OracleCache::SettleSatTable(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(memos_.mutex);
    auto it = memos_.index.find(std::string_view(key));
    if (it == memos_.index.end()) return;
    ReconcileMemoBytes(*it->second);
  }
  EnforceBudget();
}

void OracleCache::ReconcileMemoBytes(
    Shard<std::shared_ptr<SatMemo>>::Entry& entry) {
  const size_t now_bytes = entry.key.size() + entry.value->ApproxBytes();
  memos_.bytes += now_bytes - entry.bytes;
  entry.bytes = now_bytes;
}

void OracleCache::EnforceBudget() {
  std::scoped_lock lock(counts_.mutex, circuits_.mutex, memos_.mutex);
  // Per-table entry bound. (EvictTail attributes each eviction to its
  // table's counters — the resolution shapley_cache_evictions_total wants.)
  while (counts_.CanEvict() && counts_.lru.size() > max_entries_) {
    counts_.EvictTail();
  }
  while (circuits_.CanEvict() && circuits_.lru.size() > max_entries_) {
    circuits_.EvictTail();
  }
  while (memos_.CanEvict() && memos_.lru.size() > max_entries_) {
    memos_.EvictTail();
  }
  // Shared byte budget, true LRU across the tables via the use ticks.
  while (counts_.bytes + circuits_.bytes + memos_.bytes > max_bytes_) {
    struct Candidate {
      bool evictable;
      uint64_t tick;
    };
    const Candidate candidates[] = {
        {counts_.CanEvict(), counts_.CanEvict() ? counts_.TailTick() : 0},
        {circuits_.CanEvict(),
         circuits_.CanEvict() ? circuits_.TailTick() : 0},
        {memos_.CanEvict(), memos_.CanEvict() ? memos_.TailTick() : 0}};
    int oldest = -1;
    for (int i = 0; i < 3; ++i) {
      if (!candidates[i].evictable) continue;
      if (oldest == -1 || candidates[i].tick < candidates[oldest].tick) {
        oldest = i;
      }
    }
    if (oldest == -1) break;  // Only the per-table most recent entries remain.
    if (oldest == 0) {
      counts_.EvictTail();
    } else if (oldest == 1) {
      circuits_.EvictTail();
    } else {
      memos_.EvictTail();
    }
  }
}

OracleCache::Stats OracleCache::PerTableStats() const {
  auto snapshot = [](const ShardCounters& c) {
    TableStats out;
    out.hits = c.hits.load(std::memory_order_relaxed);
    out.misses = c.misses.load(std::memory_order_relaxed);
    out.inserts = c.inserts.load(std::memory_order_relaxed);
    out.evictions = c.evictions.load(std::memory_order_relaxed);
    return out;
  };
  Stats stats;
  stats.counts = snapshot(counts_.stats);
  stats.circuits = snapshot(circuits_.stats);
  stats.memos = snapshot(memos_.stats);
  return stats;
}

size_t OracleCache::size() const {
  std::scoped_lock lock(counts_.mutex, circuits_.mutex, memos_.mutex);
  return counts_.lru.size() + circuits_.lru.size() + memos_.lru.size();
}

size_t OracleCache::bytes_used() const {
  std::scoped_lock lock(counts_.mutex, circuits_.mutex, memos_.mutex);
  return counts_.bytes + circuits_.bytes + memos_.bytes;
}

void OracleCache::Clear() {
  std::scoped_lock lock(counts_.mutex, circuits_.mutex, memos_.mutex);
  counts_.Clear();
  circuits_.Clear();
  memos_.Clear();
}

}  // namespace shapley
