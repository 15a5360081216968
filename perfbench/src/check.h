// Answer checking: every exact answer against the efficiency axiom, a
// fixed sample bit for bit against a reference from a separate serial
// service, and sampled estimates bit for bit in values, half-width and
// sample count.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "instances.h"
#include "shapley/service/request.h"

namespace perfbench {

/// Empty when `got` is a correct answer to `instance`; otherwise why not.
/// `reference` (may be null) is the serial service's answer to the same
/// request. ApproxInfo::memo_hits is not compared: it depends on thread
/// scheduling (a known defect) and is reported as telemetry instead.
std::string CheckAnswer(const Instance& instance,
                        const shapley::SvcResponse* reference,
                        const shapley::SvcResponse& got);

/// Per-worker accumulator of checks and of the per-request telemetry the
/// per-layer metrics need. Workers own one each; the driver merges them.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> first_errors;

  size_t timed = 0;  ///< Answers carrying service queue/exec times.
  double queue_ms = 0.0;
  double exec_ms = 0.0;

  size_t sampled = 0;
  double samples = 0.0;
  double checkpoints = 0.0;
  double hoeffding = 0.0;
  double memo_hits = 0.0;
  double sampled_exec_ms = 0.0;
  size_t memo_compared = 0;
  size_t memo_differs = 0;  ///< memo_hits unlike the reference's.

  /// Checks one answer and records it.
  void Record(const Instance& instance, const shapley::SvcResponse* reference,
              const shapley::SvcResponse& got);
  /// Records an answer that never arrived (transport error, exception).
  void Fail(const std::string& why);
  void Merge(const Tally& other);
};

/// Test hook: when `n` > 0, every n-th answer any Tally records is
/// corrupted (one value moved) before it is checked.
void CorruptEvery(size_t n);

/// Proves the checker catches a corrupted answer: corrupts a copy of
/// `reference` (a value; for estimates also the half-width) and requires
/// CheckAnswer to reject each corruption. Empty on success.
std::string SelfTest(const Instance& instance,
                     const shapley::SvcResponse& reference);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
