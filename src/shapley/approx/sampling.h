#ifndef SHAPLEY_APPROX_SAMPLING_H_
#define SHAPLEY_APPROX_SAMPLING_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "shapley/approx/approx.h"
#include "shapley/engines/svc.h"

namespace shapley {

/// Monte Carlo permutation sampling for SVC_q — the standard answer on the
/// #P-hard side of the paper's dichotomy (cf. Kara–Olteanu–Suciu; Lupia et
/// al.): Equation 1 reads the Shapley value as the expectation, over a
/// uniformly random permutation π of Dn, of the marginal contribution
/// v(π<f ∪ {f}) − v(π<f); averaging that marginal over sampled
/// permutations estimates every fact's value simultaneously, with a
/// concentration bound certifying an additive (ε, δ) guarantee per fact.
///
/// Three strategies share the execution substrate (see ApproxStrategy):
///  - hoeffding: the fixed-count baseline — HoeffdingSamples(ε, δ, range)
///    permutations drawn up front, variance-blind;
///  - bernstein: empirical-Bernstein sequential stopping — between batch
///    rounds, every fact whose variance-aware half-width already meets ε
///    is retired (its estimate freezes), and the run stops when all facts
///    are retired, never exceeding the Hoeffding count (approx/stopping.h);
///  - stratified: the same stopping rule over position-stratified,
///    antithetically paired permutation groups (approx/strata.h), which
///    cut the between-position variance the Bernstein rule feeds on.
/// Marginal ranges are computed PER FACT (PerFactMarginalRanges): a fact
/// whose relation negation never touches keeps the tighter range-1 bound
/// even on a query with negated atoms elsewhere.
///
/// Execution model:
///  - permutations are drawn in fixed-size batches; batches fan out across
///    the exec-context ThreadPool, each with its own SplitMix64 stream
///    seeded purely by (request seed, batch index), and permutation
///    positions index the facts in CANONICAL TEXT ORDER (not interner-id
///    order, which varies with process history) — so the estimate is a
///    function of (seed, instance) alone, bit-identical across thread
///    counts, scheduling orders, schemas and processes (per-fact tallies
///    are integers and merging is commutative addition); a request
///    replayed through the network front (net/) against a remote server
///    reproduces the local run exactly. Adaptive strategies take their stopping
///    decisions only BETWEEN rounds of batches, from the merged tallies,
///    so early exit never breaks that guarantee — it only lets the batch
///    fan-out stop scheduling rounds the contract no longer needs;
///  - one permutation walk decides "S ∪ Dx |= q" for each prefix
///    coalition S, yielding one marginal sample for EVERY fact: m
///    permutations give m samples per fact for ~n·m decisions total;
///  - monotone queries early-exit a walk at the first satisfied prefix
///    (all later marginals are 0), which in practice cuts the walk to the
///    satisfying prefix length;
///  - for a monotone CQ or UCQ (or a conjunction of them) over |Dn| ≤ 64,
///    "S ∪ Dx |= q" is one fixed positive DNF of S — the lineage
///    (lineage/lineage.h), whose clauses are the endogenous parts of the
///    minimal supports. The query's homomorphism images (supports that
///    include every minimal one, query/supports.h EnumerateHomImages) are
///    enumerated once per request, each becomes a 64-bit clause mask over
///    the canonical positions, and the masks are indexed by player, so
///    adding a player to the prefix tests only the clauses it can
///    complete: no world, no query evaluation, no memo;
///  - every other instance (non-monotone queries, path queries, whose
///    support search is exponential in the graph, |Dn| > 64, or more
///    homomorphism images than a fixed internal cap) evaluates the
///    query on each prefix world; small prefix coalitions are memoized in
///    a SatMemo shared through the exec-context OracleCache under the same
///    canonical fingerprint as counting work (|Dn| ≤ 64 only), so repeated
///    sub-coalition evaluations amortize across batches, threads and
///    repeated requests. Both deciders agree on every coalition, so the
///    estimates do not depend on which one served a request.
///
/// Estimates are returned as exact rationals of the empirical mean
/// ((#positive − #negative marginals) / samples backing the fact), so
/// responses stay in the BigRational currency of the exact engines and
/// identical seeds reproduce identical values bit for bit.
class SamplingSvc : public SvcEngine {
 public:
  /// Guard on the run's sample budget: a request whose (ε, δ) derives more
  /// permutations than this and supplies no tighter max_samples budget is
  /// refused with a structured kCapacityExceeded — the sampler's analogue
  /// of the exhaustive engines' 2^|Dn| guard. It bounds one factor of the
  /// total work (samples × |Dn| evaluations); wall time on huge instances
  /// is bounded cooperatively by set_cancel/set_deadline, which the
  /// serving layer wires from the request. Adaptive strategies may stop
  /// far below the budget; they can never exceed it.
  static constexpr size_t kSampleGuard = size_t{1} << 26;

  explicit SamplingSvc(ApproxParams params = {}) : params_(params) {}

  std::string name() const override { return "sampling"; }

  EngineCaps caps() const override {
    return {.all_query_classes = true,
            .approximate = true,
            .error_model = ApproxErrorModel(params_.strategy)};
  }

  /// The (ε, δ, seed, budget, strategy) contract for subsequent runs. The
  /// serving layer forwards SvcRequest::approx here before the engine
  /// runs. Configuration setters are not synchronized against a running
  /// AllValues — configure before running (the service configures only
  /// its own per-request instances; a caller sharing one instance across
  /// concurrent requests owns that discipline, as with every engine).
  void set_params(const ApproxParams& params) { params_ = params; }
  const ApproxParams& params() const { return params_; }

  /// Cooperative mid-run aborts, checked between sample batches: a set
  /// cancel flag fails the run with kCancelled, a passed deadline with
  /// kDeadlineExceeded — so a long sweep cannot pin a serving worker
  /// after its client stopped caring. Both optional (null/absent = run to
  /// completion).
  void set_cancel(std::shared_ptr<std::atomic<bool>> cancel) {
    cancel_ = std::move(cancel);
  }
  void set_deadline(
      std::optional<std::chrono::steady_clock::time_point> deadline) {
    deadline_ = deadline;
  }

  /// Retired-fact walk truncation (adaptive strategies; default ON). Once
  /// the stopper retires a fact its tallies are frozen, so later walks
  /// skip the decisions that exist only to measure retired facts'
  /// marginals — the walk still adds the prefix facts (later active
  /// positions need the coalition) but decides a position only when it, or
  /// the position after it, belongs to a live fact, and ends at the last
  /// live position outright. Estimates are BIT-IDENTICAL either way
  /// (stopping_property_test asserts it); the toggle exists for that test
  /// and for perf comparisons, not as a correctness knob.
  void set_truncate_retired_walks(bool on) { truncate_retired_walks_ = on; }
  bool truncate_retired_walks() const { return truncate_retired_walks_; }

  BigRational Value(const BooleanQuery& query, const PartitionedDatabase& db,
                    const Fact& fact) override;
  std::map<Fact, BigRational> AllValues(const BooleanQuery& query,
                                        const PartitionedDatabase& db) override;

  /// What the most recent completed run actually did (strategy, samples
  /// drawn vs. Hoeffding baseline, per-fact certified half-widths, memo
  /// hits); attached to SvcResponse::approx by the service. Returns a copy
  /// under a lock — safe against a concurrently running AllValues on a
  /// shared instance (which run's info a shared instance reports is, as
  /// above, the sharer's problem; torn reads are not).
  ApproxInfo last_info() const {
    std::lock_guard<std::mutex> lock(info_mutex_);
    return info_;
  }

 private:
  ApproxParams params_;
  bool truncate_retired_walks_ = true;
  std::shared_ptr<std::atomic<bool>> cancel_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  mutable std::mutex info_mutex_;
  ApproxInfo info_;
};

}  // namespace shapley

#endif  // SHAPLEY_APPROX_SAMPLING_H_
