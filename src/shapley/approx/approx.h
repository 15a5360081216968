#ifndef SHAPLEY_APPROX_APPROX_H_
#define SHAPLEY_APPROX_APPROX_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace shapley {

/// How the sampling engine turns an (ε, δ) contract into samples:
///  - kHoeffding: the fixed-count baseline — derive the sample count from
///    the Hoeffding bound up front and draw it all, variance-blind.
///  - kBernstein: empirical-Bernstein sequential stopping — draw in
///    batches, and between batches retire every fact whose variance-aware
///    confidence half-width already meets ε (a δ-spending schedule over
///    the checkpoints keeps the joint contract honest). Low-variance facts
///    stop an order of magnitude earlier than the Hoeffding count.
///  - kStratified: the same sequential stopping over position-stratified,
///    antithetically paired permutations — each iid sampling unit covers
///    every fact's position strata evenly (rotations) and in complementary
///    pairs (reversal), cutting the between-position variance component
///    before the Bernstein rule ever sees it.
/// Every strategy preserves the determinism contract: identical seeds give
/// bit-identical estimates across thread counts, because stopping
/// decisions happen only at batch boundaries from merged integer tallies.
enum class ApproxStrategy {
  kHoeffding = 0,
  kBernstein = 1,
  kStratified = 2,
};

inline const char* ToString(ApproxStrategy strategy) {
  switch (strategy) {
    case ApproxStrategy::kHoeffding:
      return "hoeffding";
    case ApproxStrategy::kBernstein:
      return "bernstein";
    case ApproxStrategy::kStratified:
      return "stratified";
  }
  return "?";
}

/// CLI/service-facing parse; nullopt for unknown names (the caller owns
/// turning that into its structured error).
inline std::optional<ApproxStrategy> ParseApproxStrategy(
    const std::string& name) {
  if (name == "hoeffding") return ApproxStrategy::kHoeffding;
  if (name == "bernstein") return ApproxStrategy::kBernstein;
  if (name == "stratified") return ApproxStrategy::kStratified;
  return std::nullopt;
}

/// The concentration-bound promise an engine configured with `strategy`
/// advertises through EngineCaps::error_model.
inline const char* ApproxErrorModel(ApproxStrategy strategy) {
  switch (strategy) {
    case ApproxStrategy::kHoeffding:
      return "hoeffding: P(|est - Sh| > eps) <= delta per fact, additive; "
             "deterministic given seed";
    case ApproxStrategy::kBernstein:
      return "empirical-bernstein sequential stopping: P(|est - Sh| > "
             "reported half-width) <= delta per fact across all stopping "
             "checkpoints (union delta-spending); never draws more than "
             "the hoeffding count; deterministic given seed";
    case ApproxStrategy::kStratified:
      return "empirical-bernstein over position-stratified antithetic "
             "permutation units: P(|est - Sh| > reported half-width) <= "
             "delta per fact across all stopping checkpoints; never draws "
             "more than the hoeffding count; deterministic given seed";
  }
  return "?";
}

/// Approximation contract of a sampling request: the caller asks for
/// estimates within an additive half-width `epsilon` of the exact Shapley
/// value, each with failure probability at most `delta` (per fact), and
/// supplies the base `seed` that makes the run bit-reproducible. The
/// sample budget is derived from (epsilon, delta) by the Hoeffding bound
/// (see HoeffdingSamples) and optionally capped by `max_samples`; adaptive
/// strategies may stop well below it, and when the cap bites, the response
/// reports the (wider) half-width actually achieved by the drawn samples
/// instead of the requested epsilon.
struct ApproxParams {
  double epsilon = 0.05;   ///< Target additive error (half-width), > 0.
  double delta = 0.05;     ///< Per-fact failure probability, in (0, 1).
  uint64_t seed = 1;       ///< Base seed; same seed → bit-identical output.
  size_t max_samples = 0;  ///< Sample budget cap (0 = derived count only).
  /// Sampling/stopping strategy (see ApproxStrategy). The default is the
  /// fixed-count Hoeffding baseline. Reproducibility is within-version:
  /// same seed, same build → bit-identical estimates; across versions the
  /// derived sample count may legitimately change (e.g. the per-fact
  /// range analysis tightening a negated query's budget), which changes
  /// the realized estimates.
  ApproxStrategy strategy = ApproxStrategy::kHoeffding;
};

/// What an approximate engine actually did, attached to the response so the
/// caller can judge the estimate: the realized sample count, the half-width
/// the active bound certifies at that count, and the confidence level.
/// The guarantee reads: for each fact independently,
///   P(|estimate − Sh(fact)| > its half-width) ≤ delta.
/// The per-fact vectors are indexed by the database's (sorted) endogenous
/// fact order — the same order the values map iterates in.
struct ApproxInfo {
  double epsilon = 0.0;     ///< Requested half-width.
  double delta = 0.0;       ///< Requested per-fact failure probability.
  uint64_t seed = 0;        ///< Seed the run used (reruns reproduce it).
  size_t samples = 0;       ///< Permutations drawn (max over facts).
  double half_width = 0.0;  ///< Widest per-fact certified half-width.
  double confidence = 0.0;  ///< 1 − delta.
  double range = 1.0;       ///< Widest per-fact marginal range (1 or 2).
  /// Coalition evaluations served by the SatMemo — the fallback path's
  /// counter, always 0 on requests decided by lineage masks (monotone
  /// queries over at most 64 facts). Schedule-dependent
  /// telemetry, not part of the (request, seed) contract: parallel batches
  /// race to insert a mask first, and a memo warmed by earlier requests
  /// serves more. Sent on the wire under the response's volatile "stats"
  /// block ("stats.memo_hits"), never inside "approx".
  size_t memo_hits = 0;

  /// Strategy that produced the estimates ("hoeffding" | "bernstein" |
  /// "stratified") — echoed verbatim into responses so a caller can tell
  /// which stopping rule certified the half-widths.
  std::string strategy;
  /// The fixed Hoeffding-bound sample count the same (ε, δ) contract would
  /// have drawn up front — the baseline adaptive strategies are measured
  /// against. Adaptive runs never draw more than this.
  size_t hoeffding_baseline = 0;
  /// Stopping checkpoints evaluated (0 for the fixed Hoeffding strategy).
  size_t checkpoints = 0;
  /// Facts whose bound met ε before the budget ran out.
  size_t facts_retired = 0;

  /// Per-fact marginal range: 1.0 for facts the query is monotone or
  /// anti-monotone in (their marginal spans one unit), 2.0 for facts whose
  /// relation occurs under both polarities. Computed per fact, not per
  /// request — a fact never touched by negation keeps the tighter bound
  /// even on a query with negated atoms elsewhere.
  std::vector<double> fact_ranges;
  /// Per-fact permutations backing the estimate: a retired fact's estimate
  /// freezes at its retirement checkpoint (later draws are ignored), so
  /// entries can differ under adaptive strategies.
  std::vector<size_t> fact_samples;
  /// Per-fact certified half-width at `fact_samples` draws. The honesty
  /// contract the tests pin down: every estimate lands within ITS OWN
  /// reported half-width of the exact value (with probability ≥ 1 − δ).
  std::vector<double> fact_half_widths;

  std::string ToString() const;
};

/// Hoeffding sample count: the smallest m with
///   2·exp(−2·m·epsilon² / range²) ≤ delta,
/// i.e. m = ceil(range²·ln(2/delta) / (2·epsilon²)). `range` is the spread
/// of one sampled marginal: the Boolean-query marginal v(P∪{f}) − v(P)
/// lies in {0, 1} for monotone queries (range 1) and {−1, 0, 1} with
/// negation (range 2).
inline size_t HoeffdingSamples(double epsilon, double delta, double range) {
  const double m =
      std::ceil(range * range * std::log(2.0 / delta) /
                (2.0 * epsilon * epsilon));
  if (m < 1.0) return 1;
  // Saturate: a tiny epsilon derives counts beyond size_t, and the
  // double→integer cast would be UB (observed wrapping to 0). The
  // sampler's own sample guard then refuses the saturated value.
  if (m >= static_cast<double>(std::numeric_limits<size_t>::max())) {
    return std::numeric_limits<size_t>::max();
  }
  return static_cast<size_t>(m);
}

/// The half-width the same bound certifies after `samples` draws:
///   half_width = range·sqrt(ln(2/delta) / (2·samples)).
inline double HoeffdingHalfWidth(size_t samples, double delta, double range) {
  return range *
         std::sqrt(std::log(2.0 / delta) / (2.0 * static_cast<double>(samples)));
}

/// Empirical-Bernstein half-width (Audibert–Munos–Szepesvári):
/// for t iid samples with empirical variance V (the biased 1/t version)
/// and range `range`,
///   P(|mean − μ| > sqrt(2·V·ln(3/delta)/t) + 3·range·ln(3/delta)/t) ≤ delta.
/// Unlike Hoeffding's, this bound shrinks with the OBSERVED variance — on
/// low-variance facts it certifies ε after an order of magnitude fewer
/// samples, at the price of a 1/t bias term that keeps it honest early on.
inline double EmpiricalBernsteinHalfWidth(size_t samples, double variance,
                                          double range, double delta) {
  const double t = static_cast<double>(samples);
  const double lg = std::log(3.0 / delta);
  return std::sqrt(2.0 * variance * lg / t) + 3.0 * range * lg / t;
}

/// δ-spending schedule of the sequential stopping rule: checkpoint k
/// (1-based) tests each fact's bound at confidence delta_k = δ/(k·(k+1)).
/// Σ_k δ/(k(k+1)) telescopes to δ, so a K-checkpoint run spends
/// δ·K/(K+1) < δ and the union over ALL checkpoints stays within δ —
/// the joint (ε, δ) contract survives any number of looks at the data.
/// The SequentialStopper feeds this schedule δ/2 and reserves the other
/// δ/2 for one terminal Hoeffding bound (the δ-split of
/// approx/stopping.h), capping a non-retiring run's width premium over
/// plain Hoeffding at √2.
inline double CheckpointDelta(double delta, size_t checkpoint) {
  const double k = static_cast<double>(checkpoint);
  return delta / (k * (k + 1.0));
}

}  // namespace shapley

#endif  // SHAPLEY_APPROX_APPROX_H_
