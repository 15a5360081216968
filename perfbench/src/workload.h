// The four workloads: what each stands up (service, HTTP front, fleet),
// its inputs, and one closed-loop operation.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check.h"
#include "common.h"
#include "instances.h"
#include "shapley/cluster/router.h"
#include "shapley/net/client.h"
#include "shapley/net/server.h"
#include "shapley/service/shapley_service.h"

namespace perfbench {

/// One workload's entry of workloads.json. Every thread count the program
/// would otherwise derive from hardware_concurrency is set here.
struct WorkloadConfig {
  std::string name;
  std::string kind;  ///< "front" | "engine" | "fleet".

  // Thread and connection budget.
  size_t clients = 0;          ///< Closed-loop connections or driver threads.
  size_t service_threads = 1;  ///< ServiceOptions::threads (per backend).
  size_t dispatch_threads = 0; ///< ServerOptions::dispatch_threads (per server).
  size_t backends = 0;         ///< fleet: backends behind the router.
  size_t router_dispatch_threads = 0;

  // Inputs.
  std::vector<Shape> shapes;
  size_t pool = 0;              ///< front/fleet: distinct repeated inputs.
  size_t batch = 1;             ///< fleet: items per /v1/batch.
  double closed_cap_rps = 0;    ///< engine: closed-loop ops per second the
                                ///< fresh inputs cover; at this rate a
                                ///< closed-loop phase stops early.
  size_t warm = 0;              ///< engine: warm-up inputs (never measured).
  size_t reference = 0;         ///< engine: inputs checked bit for bit.
  SamplingKnobs knobs;

  // Schedule.
  double open_rate = 0;             ///< Offered ops/s of the open loop.
  std::vector<double> ladder;       ///< Offered ops/s, ascending.
  double latency_limit_ms = 1.0;    ///< p99 limit of a ladder rung.
};

/// Parses workloads.json; throws std::runtime_error on a malformed file or
/// an unknown workload.
WorkloadConfig LoadConfig(const std::string& path, const std::string& name);

/// One service behind one HTTP front.
struct ServingStack {
  ServingStack(size_t service_threads, size_t dispatch_threads);
  shapley::ShapleyService service;
  shapley::net::HttpServer server;
};

/// `backends` serving stacks behind one shard router.
struct FleetStack {
  FleetStack(size_t backends, size_t service_threads, size_t dispatch_threads,
             size_t router_dispatch_threads);
  std::vector<std::unique_ptr<ServingStack>> backends;
  std::unique_ptr<shapley::cluster::ShardRouter> router;
};

class Workload {
 public:
  explicit Workload(WorkloadConfig config) : config_(std::move(config)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const WorkloadConfig& config() const { return config_; }

  /// Generates the inputs for `seed` (`fresh` of them on the engine
  /// workloads, which never repeat one) and computes the reference answers
  /// on a separate serial service. Not part of set-up time.
  void Prepare(const std::shared_ptr<shapley::Schema>& schema, uint64_t seed,
               size_t fresh);

  /// Stands the serving stack up, then the warm-up pass over the
  /// workload's distinct inputs; together these are set-up time.
  virtual void Start() = 0;
  virtual void Warm(Tally& tally) = 0;
  virtual void Stop() = 0;

  /// One operation on `worker`; `seq` counts that worker's operations.
  /// Checks its answers into `tally` and returns the items it completed (0,
  /// with a failure in `tally`, when the fresh inputs ran out). Spans go to `spans` when it is not
  /// null. An operation of several items that arrive one by one appends
  /// each item's latency, from the start of the operation, to `item_ms`.
  virtual size_t Op(size_t worker, uint64_t seq, Tally& tally, SpanLog* spans,
                    std::vector<double>& item_ms) = 0;

  /// True when requests cross a socket, so the workers' own CPU is load
  /// generation and not service work.
  virtual bool remote() const = 0;

  virtual std::vector<shapley::ShapleyService*> Services() = 0;
  virtual std::vector<shapley::net::HttpServer*> Servers() = 0;
  virtual FleetStack* Fleet() { return nullptr; }

  const std::vector<Instance>& inputs() const { return inputs_; }
  const std::vector<shapley::SvcResponse>& references() const {
    return references_;
  }
  uint64_t fingerprint() const { return fingerprint_; }
  /// Inputs consumed so far (engine workloads; others cycle).
  size_t consumed() const { return next_.load(); }

 protected:
  const shapley::SvcResponse* ReferenceFor(size_t index) const {
    return index < references_.size() ? &references_[index] : nullptr;
  }

  WorkloadConfig config_;
  std::vector<Instance> inputs_;
  std::vector<Instance> warm_inputs_;
  std::vector<shapley::SvcResponse> references_;
  uint64_t fingerprint_ = 0;
  std::atomic<size_t> next_{0};
};

std::unique_ptr<Workload> MakeWorkload(const WorkloadConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
