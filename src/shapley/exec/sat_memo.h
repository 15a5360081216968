#ifndef SHAPLEY_EXEC_SAT_MEMO_H_
#define SHAPLEY_EXEC_SAT_MEMO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace shapley {

/// A concurrent memo of coalition-satisfaction verdicts for ONE
/// (query, database) pair: coalition bitmask over the endogenous facts →
/// [S ∪ Dx |= q]. This is the sampling engine's shared oracle on
/// the inputs its lineage masks cannot serve (non-monotone queries, and
/// monotone ones whose lineage is too large) — random permutation prefixes
/// revisit small coalitions constantly (the empty prefix every
/// permutation, size-1 prefixes every n-th, ...), and each hit replaces
/// one full query evaluation.
///
/// The sampling engine indexes masks by its canonical player positions
/// (the endogenous facts sorted by their rendered text), a pure function
/// of the fact set — so two databases with equal fact sets assign equal
/// masks, and a memo keyed by the OracleCache fingerprint (see
/// OracleCache::SatTable) is shareable across requests, threads and
/// engine instances for the same (query, Dn, Dx).
///
/// Thread-safety: lock-striped; lookups and inserts from any thread.
/// Capacity: hard-capped at kMaxEntries — beyond it inserts are dropped
/// (a memo, not a cache: losing an entry only costs a re-evaluation).
class SatMemo {
 public:
  /// Entry cap across all stripes: with ~kBytesPerEntry of map overhead
  /// per verdict this bounds one memo at ~3 MiB. Only small-coalition
  /// masks are ever inserted (see the sampling engine), so the cap is
  /// headroom, not a working-set limit.
  static constexpr size_t kMaxEntries = size_t{1} << 16;

  /// Approximate unordered_map footprint per entry (node, hash bucket
  /// share, key + value), used by ApproxBytes for cache accounting.
  static constexpr size_t kBytesPerEntry = 48;

  /// Approximate heap footprint right now. Memos grow after insertion, so
  /// OracleCache re-reads this on every SatTable access, and again when
  /// the sampling run that grew the memo ends (SettleSatTable), and
  /// reconciles its byte budget.
  size_t ApproxBytes() const {
    return sizeof(SatMemo) + entries() * kBytesPerEntry;
  }

  /// The memoized verdict of coalition `mask`, if known.
  std::optional<bool> Lookup(uint64_t mask) const {
    const Stripe& stripe = stripes_[StripeOf(mask)];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    auto it = stripe.verdicts.find(mask);
    if (it == stripe.verdicts.end()) return std::nullopt;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  /// Records a verdict (no-op once the cap is reached; first insert wins,
  /// which is harmless — verdicts for equal masks are equal).
  void Insert(uint64_t mask, bool satisfied) {
    if (entries_.load(std::memory_order_relaxed) >= kMaxEntries) return;
    Stripe& stripe = stripes_[StripeOf(mask)];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    if (stripe.verdicts.emplace(mask, satisfied).second) {
      entries_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  size_t entries() const { return entries_.load(std::memory_order_relaxed); }
  size_t hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  static constexpr size_t kStripes = 16;

  /// Masks are prefix-correlated (low bits dense); remix before striping
  /// so neighboring coalitions spread across locks.
  static size_t StripeOf(uint64_t mask) {
    uint64_t z = (mask + 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
    return static_cast<size_t>((z ^ (z >> 31)) & (kStripes - 1));
  }

  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<uint64_t, bool> verdicts;
  };

  Stripe stripes_[kStripes];
  std::atomic<size_t> entries_{0};
  mutable std::atomic<size_t> hits_{0};
};

}  // namespace shapley

#endif  // SHAPLEY_EXEC_SAT_MEMO_H_
