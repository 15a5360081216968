#include "shapley/approx/sampling.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "shapley/approx/rng.h"
#include "shapley/approx/stopping.h"
#include "shapley/approx/strata.h"
#include "shapley/exec/oracle_cache.h"
#include "shapley/exec/sat_memo.h"
#include "shapley/exec/thread_pool.h"
#include "shapley/obs/trace.h"
#include "shapley/query/supports.h"

namespace shapley {

namespace {

/// Permutations per pool task. Fixed (never derived from thread count or
/// sample count) so the batch → RNG-stream mapping, and with it every
/// estimate, is independent of parallelism. A multiple of
/// kStrataGroupPermutations, so stratified groups never straddle batches.
constexpr size_t kPermutationsPerBatch = 32;
static_assert(kPermutationsPerBatch % kStrataGroupPermutations == 0,
              "stratified units must not straddle batch RNG streams");

/// Batches between stopping checkpoints of the adaptive strategies: rounds
/// of 4 batches (128 permutations) balance reaction time against δ-spend —
/// each checkpoint costs a δ/(k(k+1)) installment, so checking after every
/// batch would widen the bound for nothing on long runs. A pure function
/// of nothing but this constant, so the checkpoint grid (and with it every
/// retirement decision) is identical across thread counts.
constexpr size_t kBatchesPerRound = 4;

/// Memoize only coalitions up to this size: a random prefix of size k is
/// one of C(n, k)·k! orderings, so revisits are common for tiny k and
/// vanishingly rare beyond — memoizing large prefixes would only grow the
/// table without ever hitting.
constexpr size_t kMemoMaxCoalition = 8;

/// Homomorphism-image cap of the lineage path; an instance with more
/// images takes the Evaluate + SatMemo path instead. Set from
/// bench_lineage_cap (single-threaded, 4-vCPU Xeon): on the family least
/// favorable to masks (a cross-product CQ, whose evaluation is three
/// lookups) a mask-path request takes 0.17× the evaluate path's time at 64
/// supports, 0.6× at 1000 and 1.0× at 1728; on a join through a dense Dx
/// it takes 0.08× at 1024. An over-cap request first enumerates cap + 1
/// images and throws them away: about 0.5 ms at this cap, 1.3× the
/// cheapest evaluate-path request.
constexpr size_t kLineageImageCap = 1024;

/// The lineage of a monotone query as 64-bit clause masks over the
/// sampler's canonical player positions: S ∪ Dx |= q iff some clause mask
/// is a subset of S. The clauses are the endogenous parts of the query's
/// homomorphism images — every minimal support among them, plus supersets
/// that change no verdict, so they are deduplicated but not absorbed. Each
/// clause is listed under every player it contains, so adding player p to
/// a coalition tests only clauses_of[p] — the only clauses p can complete.
struct LineageMasks {
  bool certainly_true = false;  ///< Dx alone satisfies the query.
  std::vector<std::vector<uint64_t>> clauses_of;
};

/// The masks of `query` over `db`, with player p standing for the fact
/// endo[order[p]]. Nullopt when masks cannot decide the instance exactly
/// and cheaply: a non-monotone query, more than 64 players, a query whose
/// supports are not homomorphism images (path queries: their support
/// search can run exponentially long without finding a support), or more
/// images than kLineageImageCap.
std::optional<LineageMasks> BuildLineageMasks(
    const BooleanQuery& query, const PartitionedDatabase& db,
    const std::vector<size_t>& order) {
  const size_t n = order.size();
  if (!query.IsMonotone() || n > 64) return std::nullopt;
  std::vector<Database> images;
  try {
    images = EnumerateHomImages(query, db.AllFacts(), kLineageImageCap);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  // Endogenous facts are sorted, so an image fact's endogenous index is a
  // binary search away; exogenous facts are always present and drop out.
  const auto& endo = db.endogenous().facts();
  std::vector<size_t> player_of(n);
  for (size_t p = 0; p < n; ++p) player_of[order[p]] = p;

  LineageMasks out;
  std::vector<uint64_t> clauses;
  for (const Database& image : images) {
    uint64_t mask = 0;
    for (const Fact& fact : image.facts()) {
      auto it = std::lower_bound(endo.begin(), endo.end(), fact);
      if (it != endo.end() && *it == fact) {
        mask |= uint64_t{1} << player_of[it - endo.begin()];
      }
    }
    if (mask == 0) {
      out.certainly_true = true;
      return out;
    }
    clauses.push_back(mask);
  }
  std::sort(clauses.begin(), clauses.end());
  clauses.erase(std::unique(clauses.begin(), clauses.end()), clauses.end());
  out.clauses_of.resize(n);
  for (uint64_t clause : clauses) {
    for (uint64_t rest = clause; rest != 0; rest &= rest - 1) {
      out.clauses_of[std::countr_zero(rest)].push_back(clause);
    }
  }
  return out;
}

/// A walk's growing prefix coalition, decided by lineage masks: Add is a
/// handful of mask tests, Satisfied a field read. The verdict is updated
/// on EVERY Add (also at positions the walk does not read), so it is
/// always exact for the whole prefix.
class MaskCoalition {
 public:
  explicit MaskCoalition(const LineageMasks& lineage) : lineage_(lineage) {}

  void Reset() {
    mask_ = 0;
    satisfied_ = lineage_.certainly_true;
  }
  void Add(size_t player) {
    mask_ |= uint64_t{1} << player;
    if (satisfied_) return;
    for (uint64_t clause : lineage_.clauses_of[player]) {
      if ((clause & ~mask_) == 0) {
        satisfied_ = true;
        return;
      }
    }
  }
  bool Satisfied() const { return satisfied_; }

 private:
  const LineageMasks& lineage_;
  uint64_t mask_ = 0;
  bool satisfied_ = false;
};

/// A walk's growing prefix coalition, decided by evaluating the query on
/// the prefix world Dx ∪ S (the path for everything the masks cannot
/// serve). One world per batch: Add inserts a fact and Reset removes the
/// walk's facts again — O(walk length) restores instead of a full
/// exogenous copy per permutation. Small coalitions are memoized in the
/// shared SatMemo (null beyond 64 players, where masks stop being
/// representable).
class WorldCoalition {
 public:
  WorldCoalition(const BooleanQuery& query, const std::vector<Fact>& endo,
                 const std::vector<size_t>& order, const Database& exogenous,
                 SatMemo* memo)
      : query_(query), endo_(endo), order_(order), world_(exogenous),
        memo_(memo) {
    walked_.reserve(endo.size());
  }

  void Reset() {
    for (size_t player : walked_) world_.Remove(endo_[order_[player]]);
    walked_.clear();
    mask_ = 0;
  }
  void Add(size_t player) {
    world_.Insert(endo_[order_[player]]);
    walked_.push_back(player);
    // No memo beyond 64 players, where the shift would be UB.
    if (memo_ != nullptr) mask_ |= uint64_t{1} << player;
  }
  bool Satisfied() {
    const bool memoizable =
        memo_ != nullptr &&
        static_cast<size_t>(std::popcount(mask_)) <= kMemoMaxCoalition;
    if (memoizable) {
      if (std::optional<bool> verdict = memo_->Lookup(mask_)) {
        ++memo_hits_;
        return *verdict;
      }
    }
    const bool satisfied = query_.Evaluate(world_);
    if (memoizable) memo_->Insert(mask_, satisfied);
    return satisfied;
  }
  size_t memo_hits() const { return memo_hits_; }

 private:
  const BooleanQuery& query_;
  const std::vector<Fact>& endo_;
  const std::vector<size_t>& order_;
  Database world_;
  SatMemo* memo_;
  std::vector<size_t> walked_;
  uint64_t mask_ = 0;
  size_t memo_hits_ = 0;
};

size_t IndexOfEndogenous(const PartitionedDatabase& db, const Fact& fact) {
  const auto& endo = db.endogenous().facts();
  for (size_t i = 0; i < endo.size(); ++i) {
    if (endo[i] == fact) return i;
  }
  throw SvcException({SvcErrorCode::kInvalidRequest,
                      "sampling: fact is not endogenous in the database",
                      "sampling"});
}

void ValidateParams(const ApproxParams& params) {
  if (!(params.epsilon > 0.0)) {
    throw SvcException({SvcErrorCode::kInvalidRequest,
                        "sampling: epsilon must be > 0", "sampling"});
  }
  if (!(params.delta > 0.0) || !(params.delta < 1.0)) {
    throw SvcException({SvcErrorCode::kInvalidRequest,
                        "sampling: delta must be in (0, 1)", "sampling"});
  }
  switch (params.strategy) {
    case ApproxStrategy::kHoeffding:
    case ApproxStrategy::kBernstein:
    case ApproxStrategy::kStratified:
      break;
    default:
      throw SvcException(
          {SvcErrorCode::kInvalidRequest,
           "sampling: unknown approximation strategy — expected hoeffding, "
           "bernstein or stratified",
           "sampling"});
  }
}

}  // namespace

std::string ApproxInfo::ToString() const {
  std::ostringstream os;
  os << "strategy=" << strategy << " samples=" << samples << "/"
     << hoeffding_baseline << " half_width=" << half_width
     << " confidence=" << confidence << " seed=" << seed
     << " (requested eps=" << epsilon << " delta=" << delta
     << ", marginal range " << range << ", checkpoints=" << checkpoints
     << ", retired=" << facts_retired << "/" << fact_half_widths.size()
     << ", memo_hits=" << memo_hits << ")";
  return os.str();
}

BigRational SamplingSvc::Value(const BooleanQuery& query,
                               const PartitionedDatabase& db,
                               const Fact& fact) {
  const size_t index = IndexOfEndogenous(db, fact);
  // One permutation samples every fact's marginal at once, so the whole
  // AllValues sweep costs the same sample budget as a single fact.
  std::map<Fact, BigRational> values = AllValues(query, db);
  return values.at(db.endogenous().facts()[index]);
}

std::map<Fact, BigRational> SamplingSvc::AllValues(
    const BooleanQuery& query, const PartitionedDatabase& db) {
  ValidateParams(params_);
  const auto& endo = db.endogenous().facts();
  const size_t n = endo.size();

  const bool monotone = query.IsMonotone();
  // Per-fact ranges, not one per request: a mixed instance charges each
  // fact only the spread its own relation's polarity admits. The request's
  // sample BUDGET must still cover the widest fact.
  const std::vector<double> ranges = PerFactMarginalRanges(query, db);
  const double max_range =
      n == 0 ? (monotone ? 1.0 : 2.0)
             : *std::max_element(ranges.begin(), ranges.end());

  const size_t baseline = HoeffdingSamples(params_.epsilon, params_.delta,
                                           max_range);
  size_t budget = baseline;
  if (params_.max_samples > 0) {
    budget = std::min(budget, params_.max_samples);
  }
  if (budget > kSampleGuard) {
    throw SvcException(
        {SvcErrorCode::kCapacityExceeded,
         "sampling: (epsilon, delta) derives " + std::to_string(budget) +
             " permutations, beyond the engine guard of " +
             std::to_string(kSampleGuard) +
             " — widen epsilon/delta or set max_samples",
         "sampling"});
  }

  // Built locally and published under the lock only when the run
  // completes: failed or aborted runs leave last_info() untouched, and a
  // concurrent last_info() reader never sees a half-filled struct.
  ApproxInfo info;
  info.epsilon = params_.epsilon;
  info.delta = params_.delta;
  info.seed = params_.seed;
  info.confidence = 1.0 - params_.delta;
  info.range = max_range;
  info.strategy = shapley::ToString(params_.strategy);
  info.hoeffding_baseline = baseline;
  info.fact_ranges = ranges;
  info.samples = budget;
  info.half_width = HoeffdingHalfWidth(budget, params_.delta, max_range);

  std::map<Fact, BigRational> values;
  if (n == 0) {
    std::lock_guard<std::mutex> lock(info_mutex_);
    info_ = info;
    return values;
  }

  // Canonical player order: permutation position p maps to the fact at
  // endo[order[p]], with `order` sorting the endogenous facts by their
  // RENDERED TEXT rather than by their (relation id, constant id) tuple.
  // Interner ids depend on process history — a database decoded from the
  // wire, or built in another process, interns relations/constants in a
  // different sequence and would sort the same facts differently — while
  // the text is a pure function of the instance. Pinning the player
  // indexing to the text makes every estimate a function of (seed,
  // instance) alone: bit-identical across thread counts, schemas AND
  // processes — the same canonicalization discipline as the OracleCache
  // fingerprint, and what makes the memo masks below truly canonical.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  {
    std::vector<std::string> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = endo[i].ToString(*db.schema());
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return keys[a] < keys[b]; });
  }
  std::vector<double> canonical_ranges(n);
  for (size_t p = 0; p < n; ++p) canonical_ranges[p] = ranges[order[p]];

  // Sampling-unit geometry: plain strategies draw one permutation per iid
  // unit; the stratified strategy draws antithetic PAIRS (strata.h) and
  // treats the pair as the unit. A budget too small to fund even one pair
  // (an ε so loose a single draw certifies it) degenerates to a single
  // plain unit — the run must never overdraw the budget, or the
  // "never more than the Hoeffding count" contract breaks.
  const bool stratified = params_.strategy == ApproxStrategy::kStratified;
  const size_t unit_perms =
      stratified ? std::min<size_t>(kStrataGroupPermutations, budget) : 1;
  const size_t total_units = std::max<size_t>(1, budget / unit_perms);
  const size_t units_per_batch = kPermutationsPerBatch / unit_perms;
  const size_t num_batches =
      (total_units + units_per_batch - 1) / units_per_batch;

  // How a walk decides "S ∪ Dx |= q" for its prefix coalitions. Monotone
  // queries over at most 64 players use the lineage: its clauses (the
  // endogenous parts of the minimal supports) become bitmasks over the
  // canonical positions, built once per request, and every prefix is
  // decided by mask tests — no world, no memo, no query evaluation.
  // Everything else evaluates the query on the prefix world, with small
  // coalitions memoized in a SatMemo: through the exec-context cache when
  // installed (amortizes across requests with the same fingerprint), a
  // run-local memo otherwise. Coalition masks index the canonical
  // (text-ordered) fact positions, so they are canonical per fingerprint —
  // two processes memoizing the same instance agree bit for bit; beyond 64
  // facts masks stop being representable and the memo is skipped. Both
  // deciders give the same verdict on every coalition, so the estimates do
  // not depend on which one served the request.
  const std::optional<LineageMasks> lineage_masks =
      BuildLineageMasks(query, db, order);
  std::shared_ptr<SatMemo> memo;
  std::string memo_key;  // Non-empty iff the memo is the cache's.
  if (!lineage_masks.has_value() && n <= 64) {
    if (exec_.cache != nullptr) {
      memo_key = OracleCache::SatTableKey(query, db);
      memo = exec_.cache->SatTable(memo_key);
    } else {
      memo = std::make_shared<SatMemo>();
    }
  }
  // SatTable inserts the memo empty; the run charges what it grew the memo
  // to when it ends, however it ends (completed, cancelled, past its
  // deadline).
  auto settle_memo = [&] {
    if (!memo_key.empty()) exec_.cache->SettleSatTable(memo_key);
  };

  // v(∅) = [Dx |= q], the `prev` seed of every walk — decided once.
  const bool base_satisfied = lineage_masks.has_value()
                                  ? lineage_masks->certainly_true
                                  : query.Evaluate(db.exogenous());

  // Retirement snapshot the walks truncate against (canonical positions;
  // empty = truncation off or nothing retired yet). Updated ONLY between
  // rounds, right after the stopper's checkpoint — every batch of a round
  // sees one stable snapshot, so the truncation inherits the checkpoint
  // grid's thread-count independence. A retired fact's tallies are frozen
  // (the stopper never reads them again), so walks may skip the
  // evaluations that exist only to measure retired facts' marginals: a
  // position is evaluated iff it, or the position after it (whose marginal
  // needs this prefix's value as `prev`), belongs to a live fact, and the
  // walk ends at the last live position outright. Estimates are
  // bit-identical with truncation on or off; only the evaluation count
  // drops (substantially, once most facts retire early).
  std::vector<bool> retired_walk_snapshot;

  // Per-fact cumulative tallies over iid units: net[i] = Σ unit sums
  // (#positive − #negative marginals), sq[i] = Σ squared unit sums (what
  // the empirical-Bernstein rule reads the variance from). Both merged
  // with commutative integer addition, so the totals — and with them every
  // stopping decision — are schedule-independent.
  std::vector<int64_t> net(n, 0);
  std::vector<int64_t> sq(n, 0);
  std::atomic<size_t> memo_hits{0};
  std::mutex merge_mutex;

  auto run_batch = [&](size_t batch) {
    // Cooperative abort points between batches: the sweep's total work
    // (samples × |Dn| query evaluations) is caller-tunable, so honoring
    // cancellation and deadlines mid-run is what keeps a serving worker
    // reclaimable. The thrown SvcException abandons the remaining batches
    // (ParallelFor rethrows the first body exception at the call site).
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      throw SvcException({SvcErrorCode::kCancelled,
                          "sampling: request cancelled mid-run", "sampling"});
    }
    if (deadline_.has_value() &&
        std::chrono::steady_clock::now() > *deadline_) {
      throw SvcException({SvcErrorCode::kDeadlineExceeded,
                          "sampling: deadline passed mid-run after " +
                              std::to_string(batch) + " of " +
                              std::to_string(num_batches) + " batches",
                          "sampling"});
    }
    SplitMix64 rng(MixSeed(params_.seed, batch));
    std::vector<int64_t> local_net(n, 0);
    std::vector<int64_t> local_sq(n, 0);
    std::vector<int64_t> unit_sum(n, 0);  // One unit's per-fact marginals.
    std::vector<size_t> perm(n);
    std::iota(perm.begin(), perm.end(), size_t{0});
    std::vector<size_t> reversed;  // Stratified: antithetic partner.

    // One permutation walk: marginals accumulate into unit_sum (a group's
    // walks share one unit_sum; a plain unit is a single walk). Players
    // are CANONICAL positions; endo[order[player]] is the actual fact.
    auto walk = [&](const std::vector<size_t>& arrangement, auto& coalition) {
      coalition.Reset();
      bool prev = base_satisfied;
      // Truncation bound: the position of the LAST live fact in this
      // arrangement — everything beyond it measures only frozen tallies.
      const bool truncate = !retired_walk_snapshot.empty();
      size_t last_live = n - 1;
      if (truncate) {
        size_t i = n;
        while (i > 0 && retired_walk_snapshot[arrangement[i - 1]]) --i;
        if (i == 0) return;  // Every fact retired; nothing left to measure.
        last_live = i - 1;
      }
      for (size_t i = 0; i <= last_live; ++i) {
        // Monotone walks stop at the first satisfied prefix: every later
        // fact joins a winning coalition, marginal 0. (`prev` may lag the
        // true prefix value across SKIPPED positions below — the walk then
        // just breaks one evaluated position later; live facts' marginals
        // are unaffected, because a live position always sees an evaluated
        // predecessor.)
        if (monotone && prev) break;
        const size_t player = arrangement[i];
        coalition.Add(player);

        // Evaluate iff this position's marginal is still read (live fact)
        // or the NEXT position's is (its marginal subtracts this prefix's
        // value). Two retired positions in a row need no evaluation at
        // all — the coalition just accumulates their facts.
        if (truncate && retired_walk_snapshot[player] &&
            (i == last_live || retired_walk_snapshot[arrangement[i + 1]])) {
          continue;
        }

        const bool current = coalition.Satisfied();
        unit_sum[player] +=
            static_cast<int64_t>(current) - static_cast<int64_t>(prev);
        prev = current;
      }
    };

    // The batch's sampling units, with the walk specialized to the
    // coalition decider (no per-position dispatch).
    auto sample_units = [&](auto& coalition) {
      const size_t first = batch * units_per_batch;
      const size_t last = std::min(total_units, first + units_per_batch);
      for (size_t u = first; u < last; ++u) {
        // Fisher–Yates; carrying the previous permutation as the starting
        // arrangement is fine (the shuffle is uniform from any start) and
        // deterministic (batches replay their whole schedule from the
        // seed).
        for (size_t i = n - 1; i > 0; --i) {
          std::swap(perm[i], perm[rng.NextBelow(i + 1)]);
        }

        walk(perm, coalition);
        if (unit_perms == kStrataGroupPermutations) {
          // One iid unit = one antithetic pair: the reversal samples every
          // fact at the complementary position stratum (see strata.h for
          // why that is both unbiased and variance-cutting).
          ReverseInto(perm, &reversed);
          walk(reversed, coalition);
        }

        for (size_t i = 0; i < n; ++i) {
          const int64_t x = unit_sum[i];
          if (x != 0) {
            local_net[i] += x;
            local_sq[i] += x * x;
            unit_sum[i] = 0;
          }
        }
      }
    };

    size_t local_hits = 0;
    if (lineage_masks.has_value()) {
      MaskCoalition coalition(*lineage_masks);
      sample_units(coalition);
    } else {
      WorldCoalition coalition(query, endo, order, db.exogenous(), memo.get());
      sample_units(coalition);
      local_hits = coalition.memo_hits();
    }

    std::lock_guard<std::mutex> lock(merge_mutex);
    for (size_t i = 0; i < n; ++i) {
      net[i] += local_net[i];
      sq[i] += local_sq[i];
    }
    memo_hits.fetch_add(local_hits, std::memory_order_relaxed);
  };

  auto run_span = [&](size_t from, size_t to) {
    try {
      if (exec_.pool != nullptr && exec_.pool->num_threads() > 1 &&
          to - from > 1) {
        exec_.pool->ParallelFor(from, to, run_batch);
      } else {
        for (size_t batch = from; batch < to; ++batch) run_batch(batch);
      }
    } catch (...) {
      settle_memo();  // An aborted run grew the memo too.
      throw;
    }
  };

  // Per-round spans for traced requests (exec_.trace is null — zero-cost
  // — unless the request opted in), recorded from this coordinating
  // thread only: pool workers running batches never touch the recorder.
  // Tracing observes the round barriers; it never changes the batch → RNG
  // mapping, so traced and untraced estimates are bit-identical.
  obs::TraceRecorder* recorder = exec_.trace;

  if (params_.strategy == ApproxStrategy::kHoeffding) {
    // The fixed-count baseline: one fan-out over every batch, no
    // checkpoints — the same batch schedule as before the adaptive
    // strategies existed, so estimates only differ where the per-fact
    // range analysis tightened the derived count itself. The per-fact
    // half-widths apply the per-fact ranges: at the same sample count, a
    // fact negation never touches certifies half the width.
    if (recorder != nullptr) recorder->Begin("round");
    run_span(0, num_batches);
    if (recorder != nullptr) {
      recorder->Attr("samples", std::to_string(total_units * unit_perms));
      recorder->Attr("retired", "0");
      recorder->End();
    }
    const int64_t drawn = static_cast<int64_t>(total_units);
    info.fact_samples.assign(n, total_units);
    info.fact_half_widths.resize(n);
    for (size_t p = 0; p < n; ++p) {
      // Tallies are canonical-indexed; reports stay in endogenous order.
      const size_t i = order[p];
      info.fact_half_widths[i] =
          HoeffdingHalfWidth(total_units, params_.delta, ranges[i]);
      values.emplace(endo[i], BigRational(BigInt(net[p]), BigInt(drawn)));
    }
  } else {
    // Adaptive strategies: rounds of batches with a stopping checkpoint
    // between them. The early exit is what the adaptive contract buys —
    // once every fact's bound meets ε, the remaining rounds are never
    // scheduled. Checkpoints see only merged tallies at round barriers,
    // so the exit round (and every estimate) is thread-count independent.
    SequentialStopper stopper(params_.epsilon, params_.delta,
                              canonical_ranges, unit_perms);
    size_t done = 0;
    size_t units_done = 0;
    bool all_retired = false;
    while (done < num_batches && !all_retired) {
      if (recorder != nullptr) recorder->Begin("round");
      const size_t to = std::min(num_batches, done + kBatchesPerRound);
      run_span(done, to);
      done = to;
      units_done = std::min(total_units, done * units_per_batch);
      if (done < num_batches) {
        all_retired = stopper.Checkpoint(net, sq, units_done);
        if (truncate_retired_walks_ && !all_retired &&
            stopper.retired_count() > 0) {
          retired_walk_snapshot = stopper.retired();
        }
      }
      if (recorder != nullptr) {
        // The span covers the round's sampling AND its stopping
        // checkpoint; the attributes are the cumulative progress the
        // checkpoint saw.
        recorder->Attr("samples", std::to_string(units_done * unit_perms));
        recorder->Attr("retired", std::to_string(stopper.retired_count()));
        recorder->End();
      }
    }
    stopper.Finish(net, sq, units_done);

    info.samples = units_done * unit_perms;
    info.checkpoints = stopper.checkpoints();
    info.facts_retired = stopper.retired_within_epsilon();
    // Stopper results are canonical-indexed; un-permute into the
    // endogenous order the ApproxInfo contract promises.
    info.fact_samples.resize(n);
    info.fact_half_widths.resize(n);
    for (size_t p = 0; p < n; ++p) {
      const size_t i = order[p];
      info.fact_samples[i] = stopper.frozen_samples()[p];
      info.fact_half_widths[i] = stopper.half_widths()[p];
      values.emplace(
          endo[i],
          BigRational(BigInt(stopper.frozen_net()[p]),
                      BigInt(static_cast<int64_t>(
                          stopper.frozen_samples()[p]))));
    }
    info.half_width = *std::max_element(info.fact_half_widths.begin(),
                                        info.fact_half_widths.end());
  }

  settle_memo();
  info.memo_hits = memo_hits.load();
  {
    std::lock_guard<std::mutex> lock(info_mutex_);
    info_ = info;
  }
  return values;
}

}  // namespace shapley
