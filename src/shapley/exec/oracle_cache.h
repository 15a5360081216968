#ifndef SHAPLEY_EXEC_ORACLE_CACHE_H_
#define SHAPLEY_EXEC_ORACLE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "shapley/arith/polynomial.h"
#include "shapley/exec/sat_memo.h"

namespace shapley {

class BooleanQuery;
class DdnnfCircuit;
class FgmcEngine;
class PartitionedDatabase;

/// Memoizes the expensive artifacts of the counting pipeline across facts,
/// instances, batches and whole service lifetimes:
///  - FGMC count-by-size polynomials, keyed by (oracle, query, Dn, Dx) —
///    the unit of cost of the SVC ≤ FGMC reduction (Claim A.1), so every
///    hit eliminates one full stratified count;
///  - compiled d-DNNF circuits, keyed by (query, Dn, Dx, compiler caps) —
///    one compilation then serves FGMC, PQE and repeated probes;
///  - coalition-satisfaction memos (SatMemo), keyed by (query, Dn, Dx) —
///    the sampling engine's shared oracle fast path, so repeated
///    sub-coalition evaluations amortize across requests like counting
///    work does.
///
/// Keys are canonical fingerprints: the query's text plus the sorted fact
/// lists of both database parts (relation names + interned constant ids),
/// so two inputs fingerprint equal iff they are the same query text over
/// equal partitioned fact sets. All entry points are thread-safe — each
/// table has its own lock, so polynomial and circuit *lookups* never
/// contend with each other (the post-insert budget pass briefly takes
/// both); concurrent misses on one key compute independently and the
/// first insert wins (duplicates are discarded — results for equal keys
/// are equal).
///
/// Every table stores its values behind shared_ptr, so the under-lock
/// work of a hit is a pointer copy plus the O(1) LRU splice — never a
/// deep copy of coefficient limbs or circuit nodes.
///
/// Capacity is bounded two ways: `max_entries` entries per table, and one
/// `max_bytes` budget of approximate heap footprint (key string +
/// polynomial coefficient limbs, compiled circuit nodes, or memo entries)
/// SHARED across all tables — circuits routinely outweigh polynomials by
/// orders of magnitude, so counting entries alone would let a handful of
/// circuits blow the budget. Eviction is LRU by size across the whole
/// cache (use ticks order entries of every table on one clock): when a
/// bound is
/// exceeded, globally least-recently-used entries are dropped until the
/// cache fits again, so a long-lived serving process keeps its hot working
/// set instead of clearing wholesale. Each table always retains its most
/// recent entry, even when that entry alone exceeds the byte budget —
/// refusing it would recompute forever.
class OracleCache {
 public:
  /// Lookup/insert/evict traffic of ONE table — the per-table resolution
  /// the shapley_cache_*_total{table=...} metric families expose (the
  /// aggregate hits()/misses()/evictions() below are sums of these).
  /// `inserts` counts entries that actually became resident; a concurrent
  /// miss whose insert lost the first-wins race is a hit-shaped non-event
  /// and is not counted.
  struct TableStats {
    size_t hits = 0;
    size_t misses = 0;
    size_t inserts = 0;
    size_t evictions = 0;
  };
  struct Stats {
    TableStats counts;
    TableStats circuits;
    TableStats memos;
  };

  explicit OracleCache(size_t max_entries = 1 << 16,
                       size_t max_bytes = size_t{512} << 20)
      : max_entries_(max_entries == 0 ? 1 : max_entries),
        max_bytes_(max_bytes == 0 ? 1 : max_bytes) {}

  /// oracle.CountBySize(query, db), memoized.
  Polynomial CountBySize(FgmcEngine& oracle, const BooleanQuery& query,
                         const PartitionedDatabase& db);

  /// The d-DNNF circuit of the query's lineage over db, memoized.
  /// Compilation failures (caps exceeded, non-monotone query) are not
  /// cached and rethrow on every call.
  std::shared_ptr<const DdnnfCircuit> Circuit(const BooleanQuery& query,
                                              const PartitionedDatabase& db,
                                              size_t support_cap,
                                              size_t node_cap);

  /// The shared coalition-satisfaction memo for (query, db), keyed by the
  /// same canonical fingerprint as the counting tables — so the sampling
  /// engine's repeated sub-coalition evaluations amortize across batches,
  /// threads, requests and engine instances exactly like counting work
  /// does. `key` is SatTableKey(query, db). Creates an empty memo on first
  /// use; never null.
  std::shared_ptr<SatMemo> SatTable(const std::string& key);

  /// Charges the resident (query, db) memo's current footprint to the
  /// byte budget and evicts if that overruns it. The sampling engine calls
  /// this when the run that grew the memo ends: SatTable inserts memos
  /// empty, so a memo whose input never repeats would otherwise never be
  /// charged. Not a lookup — counts neither a hit nor a miss, and leaves
  /// the LRU order alone. No-op if the memo was evicted meanwhile.
  void SettleSatTable(const std::string& key);

  /// The key of the (query, db) memo in SatTable and SettleSatTable:
  /// computed once per sampling run, since fingerprinting renders and
  /// sorts the whole instance.
  static std::string SatTableKey(const BooleanQuery& query,
                                 const PartitionedDatabase& db);

  /// The canonical cache key; exposed for tests and diagnostics.
  static std::string Fingerprint(const std::string& oracle_name,
                                 const BooleanQuery& query,
                                 const PartitionedDatabase& db);

  size_t hits() const {
    return counts_.stats.hits + circuits_.stats.hits + memos_.stats.hits;
  }
  size_t misses() const {
    return counts_.stats.misses + circuits_.stats.misses +
           memos_.stats.misses;
  }
  /// Entries dropped by LRU-by-size eviction so far (all tables).
  size_t evictions() const {
    return counts_.stats.evictions + circuits_.stats.evictions +
           memos_.stats.evictions;
  }
  /// One per-table snapshot of lookup/insert/evict counters. Each counter
  /// is an individual atomic read (monitoring fidelity, like the service's
  /// ServiceStats) — the per-counter values are exact, the cross-counter
  /// cut is not a transaction.
  Stats PerTableStats() const;
  size_t size() const;
  /// Approximate bytes held across all tables right now.
  size_t bytes_used() const;
  void Clear();

 private:
  /// Per-table traffic counters; atomics so the hot lookup paths bump them
  /// with relaxed stores and PerTableStats() reads without any table lock.
  struct ShardCounters {
    std::atomic<size_t> hits{0};
    std::atomic<size_t> misses{0};
    std::atomic<size_t> inserts{0};
    std::atomic<size_t> evictions{0};
  };

  /// One LRU table: list front = most recently used; the index maps the
  /// key (owned by the list node, stable across splices) to its node.
  /// Entries carry a use tick from the cache-wide clock so the tables
  /// can be evicted against each other in true LRU order. All fields are
  /// guarded by `mutex` except the lock-free `stats` counters.
  template <typename Value>
  struct Shard {
    struct Entry {
      std::string key;
      Value value;
      size_t bytes = 0;
      uint64_t tick = 0;
    };
    mutable std::mutex mutex;
    ShardCounters stats;
    std::list<Entry> lru;
    std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
        index;
    size_t bytes = 0;

    /// Bumps an existing entry and copies out the value; false on miss.
    bool Lookup(const std::string& key, uint64_t tick, Value* out) {
      auto it = index.find(std::string_view(key));
      if (it == index.end()) return false;
      lru.splice(lru.begin(), lru, it->second);
      it->second->tick = tick;
      *out = it->second->value;
      return true;
    }

    /// Inserts (first insert wins) and returns the resident value.
    Value Insert(std::string key, Value value, size_t value_bytes,
                 uint64_t tick) {
      auto it = index.find(std::string_view(key));
      if (it != index.end()) {  // Concurrent miss landed first.
        lru.splice(lru.begin(), lru, it->second);
        it->second->tick = tick;
        return it->second->value;
      }
      stats.inserts.fetch_add(1, std::memory_order_relaxed);
      lru.push_front(Entry{std::move(key), std::move(value), 0, tick});
      lru.front().bytes = lru.front().key.size() + value_bytes;
      bytes += lru.front().bytes;
      index.emplace(std::string_view(lru.front().key), lru.begin());
      return lru.front().value;
    }

    /// True when the LRU tail may be evicted (never the sole entry).
    bool CanEvict() const { return lru.size() > 1; }
    /// Use tick of the LRU tail (call only when non-empty).
    uint64_t TailTick() const { return lru.back().tick; }

    void EvictTail() {
      stats.evictions.fetch_add(1, std::memory_order_relaxed);
      index.erase(std::string_view(lru.back().key));
      bytes -= lru.back().bytes;
      lru.pop_back();
    }

    void Clear() {
      index.clear();
      lru.clear();
      bytes = 0;
    }
  };

  /// Re-reads a resident memo's footprint into the table's byte total
  /// (caller holds memos_.mutex).
  void ReconcileMemoBytes(Shard<std::shared_ptr<SatMemo>>::Entry& entry);

  /// Applies both bounds; locks all shards (scoped_lock, deadlock-free).
  void EnforceBudget();

  const size_t max_entries_;
  const size_t max_bytes_;
  Shard<std::shared_ptr<const Polynomial>> counts_;
  Shard<std::shared_ptr<const DdnnfCircuit>> circuits_;
  Shard<std::shared_ptr<SatMemo>> memos_;
  std::atomic<uint64_t> clock_{0};
};

}  // namespace shapley

#endif  // SHAPLEY_EXEC_ORACLE_CACHE_H_
