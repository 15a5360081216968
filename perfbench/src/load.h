// Load generation: a closed loop (each worker sends its next operation when
// the previous one completes) and an open loop (operations are due on a
// fixed schedule, whether or not earlier ones have completed).
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstddef>
#include <vector>

#include "check.h"
#include "common.h"
#include "workload.h"

namespace perfbench {

struct Phase {
  std::vector<double> latency_ms;   ///< Per operation, or per item of
                                    ///< operations that time their items.
  std::vector<double> lateness_ms;  ///< Open loop: sent minus due, per op.
  std::vector<double> done_s;       ///< Completion times, from the start.
  // Closed loop: latency_ms in completion order; open loop: latency_ms and
  // lateness_ms in schedule order.
  size_t items = 0;
  double wall_s = 0.0;
  double process_cpu_s = 0.0;
  double worker_cpu_s = 0.0;  ///< CPU of the load-generating threads.
  bool capped = false;  ///< Closed loop: stopped at its op cap, early.
  Tally tally;
  SpanLog spans;

  /// Adds a later phase of the same kind: samples append in order, counts
  /// and times add up.
  void Append(const Phase& later);

  double ItemsPerSecond() const {
    return wall_s > 0 ? static_cast<double>(items) / wall_s : 0.0;
  }
};

/// config().clients workers in a closed loop for `seconds`, or until they
/// have started `max_ops` operations.
Phase RunClosed(Workload& workload, double seconds, bool traced,
                size_t max_ops);

/// The operations RunOpen schedules at `rate` per second for `seconds`.
inline size_t OpenSlots(double rate, double seconds) {
  return static_cast<size_t>(rate * seconds);
}

/// Operations due at `rate` per second for `seconds`, served by
/// config().clients workers; each is timed from when it was due.
Phase RunOpen(Workload& workload, double rate, double seconds);

/// Samples per window of WindowedP99: enough for ten beyond the p99.
inline constexpr size_t kMinWindow = 1000;

/// The median over consecutive windows of at least kMinWindow samples of
/// each window's p99, so one host stall moves one window, not the result.
/// The plain p99 when there are fewer than three windows.
double WindowedP99(const std::vector<double>& in_order);

struct LadderResult {
  std::vector<bool> passed;          ///< Per rung.
  std::vector<double> items_per_s;   ///< Per rung, the achieved rate.
  std::vector<double> rung_p99_ms;   ///< Per rung.
  Tally tally;
};

/// Every rung of the ladder as an open loop `seconds_per_rung` long. A rung
/// passes when its p99 stays within the latency limit and its backlog (the
/// median lateness of its last tenth) within the same limit.
LadderResult RunLadder(Workload& workload, double seconds_per_rung);

/// The median over `rounds` of each round's achieved rate at the highest
/// rung that passed in it (0 for a round where none passed). A host stall
/// fails a rung; it does not pass one above capacity, where the backlog
/// grows. So a stall below the top passing rung leaves the result alone.
double SustainedRate(const std::vector<LadderResult>& rounds);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
