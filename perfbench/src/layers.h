// The traced run's per-layer metrics: the benchmark times calls into each
// module's public functions (each call one span) and reads public counters.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check.h"
#include "common.h"
#include "load.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  size_t samples = 0;
  std::string moves;  ///< The end-to-end metric and workload it should move.
};

/// Summed counters of every service a workload runs.
struct ServiceTotals {
  size_t completed = 0;
  size_t failed = 0;
  size_t verdict_hits = 0;
  size_t verdict_misses = 0;
  size_t pool_tasks = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t cache_evictions = 0;
  size_t cache_bytes = 0;
};
ServiceTotals SumServiceStats(Workload& workload);

/// Every per-layer metric, in a fixed order. `untraced` and `traced` are the
/// two closed-loop phases of the traced run; `before`/`after` bracket them.
/// Probe answers are checked into `tally`; probe spans go to `spans`.
std::vector<Metric> MeasureLayers(
    Workload& workload, const std::shared_ptr<shapley::Schema>& schema,
    uint64_t seed, const ServiceTotals& before, const ServiceTotals& after,
    const Phase& untraced, const Phase& traced, Tally& tally, SpanLog& spans);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
