#include "workload.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "shapley/net/codec.h"
#include "shapley/net/json.h"

namespace perfbench {

using shapley::SvcRequest;
using shapley::SvcResponse;
using shapley::net::Json;

namespace {

double Number(const Json& object, const char* key, double fallback) {
  const Json* member = object.Find(key);
  if (member == nullptr) return fallback;
  std::optional<double> value = member->IfDouble();
  if (!value.has_value() || *value < 0) {
    throw std::runtime_error(std::string("workloads.json: bad number '") +
                             key + "'");
  }
  return *value;
}

size_t Count(const Json& object, const char* key, size_t fallback) {
  return static_cast<size_t>(
      Number(object, key, static_cast<double>(fallback)));
}

Shape ParseShape(const std::string& name) {
  for (Shape shape : {Shape::kSmallLifted, Shape::kSmallBrute, Shape::kLifted,
                      Shape::kBrute, Shape::kSampled}) {
    if (name == ShapeName(shape)) return shape;
  }
  throw std::runtime_error("workloads.json: unknown shape '" + name + "'");
}

}  // namespace

WorkloadConfig LoadConfig(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  std::optional<Json> root = Json::Parse(text.str(), &error);
  if (!root.has_value()) throw std::runtime_error(path + ": " + error);
  const Json* workloads = root->Find("workloads");
  const Json* w = workloads != nullptr ? workloads->Find(name) : nullptr;
  if (w == nullptr || !w->is_object()) {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  WorkloadConfig c;
  c.name = name;
  const Json* kind = w->Find("kind");
  if (kind == nullptr || kind->IfString() == nullptr) {
    throw std::runtime_error("workloads.json: '" + name + "' has no kind");
  }
  c.kind = *kind->IfString();
  const Json* budget = w->Find("budget");
  if (budget == nullptr) {
    throw std::runtime_error("workloads.json: '" + name + "' has no budget");
  }
  c.clients = Count(*budget, "clients", 1);
  c.service_threads = Count(*budget, "service_threads", 1);
  c.dispatch_threads = Count(*budget, "dispatch_threads", 0);
  c.backends = Count(*budget, "backends", 0);
  c.router_dispatch_threads = Count(*budget, "router_dispatch_threads", 0);
  if (c.clients == 0 || c.service_threads == 0 ||
      (c.kind != "engine" && c.dispatch_threads == 0) ||
      (c.kind == "fleet" && (c.backends == 0 || c.router_dispatch_threads == 0))) {
    throw std::runtime_error("workloads.json: '" + name +
                             "' leaves a thread count to the program");
  }
  if (const Json* shapes = w->Find("shapes"); shapes && shapes->IfArray()) {
    for (const Json& s : *shapes->IfArray()) {
      if (s.IfString() == nullptr) {
        throw std::runtime_error("workloads.json: shapes must be strings");
      }
      c.shapes.push_back(ParseShape(*s.IfString()));
    }
  }
  if (c.shapes.empty()) {
    throw std::runtime_error("workloads.json: '" + name + "' has no shapes");
  }
  c.pool = Count(*w, "pool", 0);
  c.batch = std::max<size_t>(1, Count(*w, "batch", 1));
  c.closed_cap_rps = Number(*w, "closed_cap_rps", 0);
  c.warm = Count(*w, "warm", 0);
  c.reference = Count(*w, "reference", 0);
  c.knobs.epsilon = Number(*w, "epsilon", c.knobs.epsilon);
  c.open_rate = Number(*w, "open_rate", 0);
  if (const Json* ladder = w->Find("ladder"); ladder && ladder->IfArray()) {
    for (const Json& r : *ladder->IfArray()) {
      std::optional<double> rate = r.IfDouble();
      if (!rate.has_value() || *rate <= 0) {
        throw std::runtime_error("workloads.json: bad ladder rate");
      }
      c.ladder.push_back(*rate);
    }
  }
  c.latency_limit_ms = Number(*w, "latency_limit_ms", 1.0);
  if (c.open_rate <= 0 || c.ladder.empty() ||
      !std::is_sorted(c.ladder.begin(), c.ladder.end())) {
    throw std::runtime_error("workloads.json: '" + name +
                             "' needs open_rate and an ascending ladder");
  }
  if (c.kind == "engine" ? c.closed_cap_rps <= 0 : c.pool == 0) {
    throw std::runtime_error("workloads.json: '" + name + "' has no inputs");
  }
  return c;
}

ServingStack::ServingStack(size_t service_threads, size_t dispatch_threads)
    : service(shapley::ServiceOptions{.threads = service_threads}),
      server(&service, [&] {
        shapley::net::ServerOptions options;
        options.dispatch_threads = dispatch_threads;
        return options;
      }()) {
  server.Start();
}

FleetStack::FleetStack(size_t n, size_t service_threads,
                       size_t dispatch_threads,
                       size_t router_dispatch_threads) {
  std::vector<std::string> specs;
  for (size_t i = 0; i < n; ++i) {
    backends.push_back(
        std::make_unique<ServingStack>(service_threads, dispatch_threads));
    specs.push_back("127.0.0.1:" +
                    std::to_string(backends.back()->server.port()));
  }
  shapley::cluster::RouterOptions options;
  options.server.dispatch_threads = router_dispatch_threads;
  options.health_poll_ms = 0;  // Nothing flaps here; no poller thread.
  router = std::make_unique<shapley::cluster::ShardRouter>(specs, options);
  router->Start();
}

void Workload::Prepare(const std::shared_ptr<shapley::Schema>& schema,
                       uint64_t seed, size_t fresh) {
  size_t reference_count = config_.reference;
  if (config_.kind == "engine") {
    inputs_ = MakeInstances(schema, config_.shapes, seed, "m",
                            std::max(config_.reference, fresh), config_.knobs);
    warm_inputs_ = MakeInstances(schema, config_.shapes, seed, "w",
                                 config_.warm, config_.knobs);
  } else {
    inputs_ = MakeInstances(schema, config_.shapes, seed, "p", config_.pool,
                            config_.knobs);
    reference_count = inputs_.size();
  }
  fingerprint_ = Fingerprint(inputs_);
  shapley::ShapleyService serial(shapley::ServiceOptions{.threads = 1});
  references_.clear();
  for (size_t i = 0; i < reference_count && i < inputs_.size(); ++i) {
    references_.push_back(serial.Compute(inputs_[i].request));
    const std::string why =
        CheckAnswer(inputs_[i], nullptr, references_.back());
    if (!why.empty()) {
      throw std::runtime_error("reference answer " + std::to_string(i) +
                               " is wrong: " + why);
    }
  }
}

namespace {

/// In-process ShapleyService::Compute from driver threads.
class EngineWorkload : public Workload {
 public:
  using Workload::Workload;

  void Start() override {
    service_ = std::make_unique<shapley::ShapleyService>(
        shapley::ServiceOptions{.threads = config_.service_threads});
  }
  void Warm(Tally& tally) override {
    for (const Instance& instance : warm_inputs_) {
      tally.Record(instance, nullptr, service_->Compute(instance.request));
    }
  }
  void Stop() override { service_.reset(); }

  size_t Op(size_t, uint64_t seq, Tally& tally, SpanLog* spans,
            std::vector<double>&) override {
    const size_t index = next_.fetch_add(1);
    if (index >= inputs_.size()) {
      tally.Fail("the fresh inputs ran out");
      return 0;
    }
    const Instance& instance = inputs_[index];
    SvcResponse response;
    {
      ScopedSpan span(spans, "service.compute", seq);
      response = service_->Compute(instance.request);
    }
    ScopedSpan span(spans, "check", seq);
    tally.Record(instance, ReferenceFor(index), response);
    return 1;
  }

  bool remote() const override { return false; }
  std::vector<shapley::ShapleyService*> Services() override {
    return {service_.get()};
  }
  std::vector<shapley::net::HttpServer*> Servers() override { return {}; }

 private:
  std::unique_ptr<shapley::ShapleyService> service_;
};

/// Closed-loop POST /v1/compute over keep-alive connections.
class FrontWorkload : public Workload {
 public:
  using Workload::Workload;

  void Start() override {
    stack_ = std::make_unique<ServingStack>(config_.service_threads,
                                            config_.dispatch_threads);
    clients_.clear();
    for (size_t c = 0; c < config_.clients; ++c) {
      clients_.push_back(std::make_unique<shapley::net::ShapleyClient>(
          "127.0.0.1", stack_->server.port()));
    }
  }
  void Warm(Tally& tally) override {
    for (size_t i = 0; i < inputs_.size(); ++i) {
      Call(i % clients_.size(), i, tally, nullptr, 0);
    }
  }
  void Stop() override {
    clients_.clear();
    stack_.reset();
  }

  size_t Op(size_t worker, uint64_t seq, Tally& tally, SpanLog* spans,
            std::vector<double>&) override {
    Call(worker, (seq * clients_.size() + worker) % inputs_.size(), tally,
         spans, seq);
    return 1;
  }

  bool remote() const override { return true; }
  std::vector<shapley::ShapleyService*> Services() override {
    return {&stack_->service};
  }
  std::vector<shapley::net::HttpServer*> Servers() override {
    return {&stack_->server};
  }

 private:
  void Call(size_t worker, size_t index, Tally& tally, SpanLog* spans,
            uint64_t seq) {
    const Instance& instance = inputs_[index];
    SvcResponse response;
    try {
      ScopedSpan span(spans, "client.round_trip", seq);
      response = clients_[worker]->Compute(instance.request);
    } catch (const std::exception& e) {
      tally.Fail(e.what());
      return;
    }
    ScopedSpan span(spans, "check", seq);
    tally.Record(instance, ReferenceFor(index), response);
  }

  std::unique_ptr<ServingStack> stack_;
  std::vector<std::unique_ptr<shapley::net::ShapleyClient>> clients_;
};

/// Closed-loop POST /v1/batch through a shard router to its backends.
class FleetWorkload : public Workload {
 public:
  using Workload::Workload;

  void Start() override {
    if (batches_.empty()) BuildBatches();
    fleet_ = std::make_unique<FleetStack>(
        config_.backends, config_.service_threads, config_.dispatch_threads,
        config_.router_dispatch_threads);
    clients_.clear();
    for (size_t c = 0; c < config_.clients; ++c) {
      clients_.push_back(std::make_unique<shapley::net::ShapleyClient>(
          "127.0.0.1", fleet_->router->port()));
    }
  }
  void Warm(Tally& tally) override {
    std::vector<double> item_ms;
    for (size_t b = 0; b < batches_.size(); ++b) {
      Call(b % clients_.size(), b, tally, nullptr, 0, item_ms);
    }
  }
  void Stop() override {
    clients_.clear();
    fleet_.reset();
  }

  size_t Op(size_t worker, uint64_t seq, Tally& tally, SpanLog* spans,
            std::vector<double>& item_ms) override {
    Call(worker, (seq * clients_.size() + worker) % batches_.size(), tally,
         spans, seq, item_ms);
    return config_.batch;
  }

  bool remote() const override { return true; }
  std::vector<shapley::ShapleyService*> Services() override {
    std::vector<shapley::ShapleyService*> out;
    for (auto& b : fleet_->backends) out.push_back(&b->service);
    return out;
  }
  std::vector<shapley::net::HttpServer*> Servers() override {
    std::vector<shapley::net::HttpServer*> out;
    for (auto& b : fleet_->backends) out.push_back(&b->server);
    return out;
  }
  FleetStack* Fleet() override { return fleet_.get(); }

 private:
  void BuildBatches() {
    // Enough batches that every input appears, each `batch` items long.
    const size_t count =
        std::max<size_t>(1, (inputs_.size() + config_.batch - 1) / config_.batch);
    for (size_t b = 0; b < count; ++b) {
      std::vector<size_t> indices;
      std::vector<SvcRequest> requests;
      for (size_t k = 0; k < config_.batch; ++k) {
        indices.push_back((b * config_.batch + k) % inputs_.size());
        requests.push_back(inputs_[indices.back()].request);
      }
      batch_indices_.push_back(std::move(indices));
      batches_.push_back(std::move(requests));
    }
  }

  /// ShapleyClient::ComputeBatch's steps, with each item's arrival time.
  void Call(size_t worker, size_t b, Tally& tally, SpanLog* spans,
            uint64_t seq, std::vector<double>& item_ms) {
    const std::vector<size_t>& indices = batch_indices_[b];
    shapley::net::ShapleyClient& client = *clients_[worker];
    const Clock::time_point start = Clock::now();
    std::vector<SvcResponse> responses(indices.size());
    std::vector<bool> arrived(indices.size(), false);
    try {
      ScopedSpan span(spans, "client.round_trip", seq);
      Json items = Json::Arr();
      for (const SvcRequest& r : batches_[b]) {
        items.Push(shapley::net::EncodeRequest(r));
      }
      Json envelope;
      envelope.Set("requests", std::move(items));
      client.RawBatch(envelope.Dump(), [&](const std::string& line) {
        std::optional<Json> parsed = Json::Parse(line);
        const Json* id = parsed ? parsed->Find("id") : nullptr;
        std::optional<uint64_t> slot = id ? id->IfUint64() : std::nullopt;
        if (!slot.has_value() || *slot >= indices.size() || arrived[*slot]) {
          return;
        }
        arrived[*slot] = true;
        shapley::net::DecodeResponse(
            *parsed, inputs_[indices[*slot]].request.db.schema(),
            &responses[*slot]);
        item_ms.push_back(1000.0 * SecondsBetween(start, Clock::now()));
      });
    } catch (const std::exception& e) {
      for (size_t k = 0; k < indices.size(); ++k) tally.Fail(e.what());
      return;
    }
    ScopedSpan span(spans, "check", seq);
    for (size_t k = 0; k < indices.size(); ++k) {
      if (!arrived[k]) {
        tally.Fail("batch item " + std::to_string(k) + " never arrived");
        continue;
      }
      tally.Record(inputs_[indices[k]], ReferenceFor(indices[k]),
                   responses[k]);
    }
  }

  std::unique_ptr<FleetStack> fleet_;
  std::vector<std::unique_ptr<shapley::net::ShapleyClient>> clients_;
  std::vector<std::vector<SvcRequest>> batches_;
  std::vector<std::vector<size_t>> batch_indices_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const WorkloadConfig& config) {
  if (config.kind == "engine") return std::make_unique<EngineWorkload>(config);
  if (config.kind == "front") return std::make_unique<FrontWorkload>(config);
  if (config.kind == "fleet") return std::make_unique<FleetWorkload>(config);
  throw std::runtime_error("workloads.json: unknown kind '" + config.kind +
                           "'");
}

}  // namespace perfbench
