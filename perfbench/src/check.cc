#include "check.h"

#include <atomic>
#include <cmath>

namespace perfbench {
namespace {

std::atomic<size_t> corrupt_every{0};
std::atomic<size_t> recorded{0};

}  // namespace

void CorruptEvery(size_t n) { corrupt_every.store(n); }

using shapley::BigRational;
using shapley::SvcResponse;

std::string CheckAnswer(const Instance& instance, const SvcResponse* reference,
                        const SvcResponse& got) {
  if (!got.ok()) return "error: " + got.error->ToString();
  const size_t n = instance.request.db.NumEndogenous();
  if (got.values.size() != n) {
    return "expected " + std::to_string(n) + " values, got " +
           std::to_string(got.values.size());
  }
  if (IsSampled(instance.shape)) {
    if (!got.approx.has_value()) return "estimate without approx block";
    if (!(got.approx->half_width > 0.0) ||
        !std::isfinite(got.approx->half_width) || got.approx->samples == 0) {
      return "estimate with no samples or no finite half-width";
    }
    if (reference != nullptr) {
      if (got.values != reference->values) return "estimate values differ";
      if (!reference->approx.has_value() ||
          got.approx->half_width != reference->approx->half_width ||
          got.approx->fact_half_widths != reference->approx->fact_half_widths) {
        return "estimate half-width differs";
      }
      if (got.approx->samples != reference->approx->samples ||
          got.approx->fact_samples != reference->approx->fact_samples) {
        return "estimate sample count differs";
      }
    }
    return "";
  }
  if (got.approx.has_value()) return "exact request answered by an estimate";
  BigRational sum(0);
  for (const auto& [fact, value] : got.values) sum += value;
  if (sum != instance.efficiency) {
    return "efficiency axiom: values sum to " + sum.ToString() + ", not " +
           instance.efficiency.ToString();
  }
  if (reference != nullptr &&
      (got.values != reference->values || got.engine != reference->engine)) {
    return "values differ from the serial reference";
  }
  return "";
}

void Tally::Record(const Instance& instance, const SvcResponse* reference,
                   const SvcResponse& got) {
  ++attempted;
  std::string why;
  const size_t every = corrupt_every.load();
  if (every > 0 && recorded.fetch_add(1) % every == every - 1 &&
      !got.values.empty()) {
    SvcResponse corrupted = got;
    corrupted.values.begin()->second += BigRational(1);
    why = CheckAnswer(instance, reference, corrupted);
  } else {
    why = CheckAnswer(instance, reference, got);
  }
  if (!why.empty()) {
    Fail(why);
    --attempted;
    return;
  }
  ++timed;
  queue_ms += got.stats.queue_ms;
  exec_ms += got.stats.exec_ms;
  if (got.approx.has_value()) {
    ++sampled;
    samples += static_cast<double>(got.approx->samples);
    checkpoints += static_cast<double>(got.approx->checkpoints);
    hoeffding += static_cast<double>(got.approx->hoeffding_baseline);
    memo_hits += static_cast<double>(got.approx->memo_hits);
    sampled_exec_ms += got.stats.exec_ms;
    if (reference != nullptr && reference->approx.has_value()) {
      ++memo_compared;
      if (got.approx->memo_hits != reference->approx->memo_hits) {
        ++memo_differs;
      }
    }
  }
}

void Tally::Fail(const std::string& why) {
  ++attempted;
  ++failed;
  if (first_errors.size() < 5) first_errors.push_back(why);
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.first_errors) {
    if (first_errors.size() < 5) first_errors.push_back(e);
  }
  timed += other.timed;
  queue_ms += other.queue_ms;
  exec_ms += other.exec_ms;
  sampled += other.sampled;
  samples += other.samples;
  checkpoints += other.checkpoints;
  hoeffding += other.hoeffding;
  memo_hits += other.memo_hits;
  sampled_exec_ms += other.sampled_exec_ms;
  memo_compared += other.memo_compared;
  memo_differs += other.memo_differs;
}

std::string SelfTest(const Instance& instance, const SvcResponse& reference) {
  if (!CheckAnswer(instance, &reference, reference).empty()) {
    return "the reference itself fails its check";
  }
  SvcResponse corrupted = reference;
  if (corrupted.values.empty()) return "reference has no values";
  corrupted.values.begin()->second +=
      BigRational(shapley::BigInt(1), shapley::BigInt(1000003));
  if (CheckAnswer(instance, &reference, corrupted).empty()) {
    return "a corrupted value passed the check";
  }
  if (IsSampled(instance.shape)) {
    SvcResponse widened = reference;
    widened.approx->half_width = std::nextafter(widened.approx->half_width, 1.0);
    if (CheckAnswer(instance, &reference, widened).empty()) {
      return "a corrupted half-width passed the check";
    }
  } else {
    // The axiom alone, without the reference, must catch it too.
    if (CheckAnswer(instance, nullptr, corrupted).empty()) {
      return "a corrupted value passed the efficiency check";
    }
  }
  return "";
}

}  // namespace perfbench
