// Where the sampling engine's lineage path stops paying. For a monotone
// CQ or UCQ the sampler enumerates the query's homomorphism images once
// per request and decides every permutation prefix by 64-bit clause masks;
// past a fixed image cap it evaluates the query on each prefix world
// instead (with a SatMemo for small coalitions). This bench sweeps the
// support count across that cap on two query families and reports, per
// instance, the median request time as served (`request_ms`: mask path up
// to the cap, evaluate path past it) next to the same request forced onto
// the evaluate path (`evaluate_ms`). Past the cap their ratio is the cost
// of the enumeration an over-cap request throws away.
//
//   product  R(x), S(y), T(z) with a, b, c endogenous facts per relation:
//            a·b·c supports over a+b+c facts. Evaluation is three relation
//            lookups, the cheapest the evaluate path gets — the least
//            favorable family for the masks.
//   join     R(x), S(x,y), T(y) with r endogenous R facts, t endogenous T
//            facts and every S(a_i, b_j) exogenous: r·t supports over r+t
//            facts, and every evaluation joins through r·t Dx facts.
//
// Requests are single-threaded with the engine_sampled workload's stopping
// rule (Bernstein, ε = 0.07, δ = 0.05), one seed per repetition.
//
// Flags: --reps N     repetitions per instance (default 5)
//        --json PATH  machine-readable rows

#include <algorithm>
#include <array>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "shapley/approx/sampling.h"
#include "shapley/data/parser.h"
#include "shapley/exec/oracle_cache.h"
#include "shapley/query/query_parser.h"

using namespace shapley;
using shapley::bench::Banner;
using shapley::bench::JsonReporter;
using shapley::bench::Table;
using shapley::bench::Timer;

namespace {

// The wrapped query under another class: same verdicts, same evaluation
// cost, but not a CQ — so the sampler serves it on the evaluate path
// whatever its support count.
class OpaqueQuery : public BooleanQuery {
 public:
  explicit OpaqueQuery(QueryPtr inner) : inner_(std::move(inner)) {}
  bool Evaluate(const Database& db) const override {
    return inner_->Evaluate(db);
  }
  std::set<Constant> QueryConstants() const override {
    return inner_->QueryConstants();
  }
  std::string ToString() const override { return inner_->ToString(); }
  const std::shared_ptr<Schema>& schema() const override {
    return inner_->schema();
  }

 private:
  QueryPtr inner_;
};

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  size_t reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::max<size_t>(1, std::strtoull(argv[++i], nullptr, 10));
    }
  }
  JsonReporter json = JsonReporter::FromArgs(argc, argv, "bench_lineage_cap");

  Banner("Sampling engine: lineage masks vs query evaluation by support count");

  // One instance of a family: its query, database text and support count.
  struct Instance {
    std::string family;
    std::string query;
    std::string db;
    size_t supports;
  };
  std::vector<Instance> instances;
  // Cross product: R(x), S(y), T(z) with a, b, c endogenous facts per
  // relation — a·b·c supports over a+b+c facts.
  for (const auto& [a, b, c] : std::vector<std::array<size_t, 3>>{
           {4, 4, 4}, {6, 6, 6}, {8, 8, 8}, {10, 10, 10}, {10, 10, 11},
           {12, 12, 12}, {16, 16, 16}, {20, 20, 20}}) {
    std::string text;
    for (size_t i = 0; i < std::max({a, b, c}); ++i) {
      const std::string k = "c" + std::to_string(i);
      if (i < a) text += "R(" + k + ") ";
      if (i < b) text += "S(" + k + ") ";
      if (i < c) text += "T(" + k + ") ";
    }
    instances.push_back({"product", "R(x), S(y), T(z)", text, a * b * c});
  }
  // Join through a dense Dx: R(x), S(x,y), T(y) with r endogenous R facts,
  // t endogenous T facts and every S(a_i, b_j) exogenous — r·t supports
  // over r+t facts, and every evaluation joins through r·t Dx facts.
  for (const auto& [r, t] : std::vector<std::array<size_t, 2>>{
           {12, 12}, {16, 16}, {22, 22}, {32, 32}}) {
    std::string endo, exo;
    for (size_t i = 0; i < r; ++i) endo += "R(a" + std::to_string(i) + ") ";
    for (size_t j = 0; j < t; ++j) endo += "T(b" + std::to_string(j) + ") ";
    for (size_t i = 0; i < r; ++i) {
      for (size_t j = 0; j < t; ++j) {
        exo += "S(a" + std::to_string(i) + ",b" + std::to_string(j) + ") ";
      }
    }
    instances.push_back(
        {"join", "R(x), S(x,y), T(y)", endo + "| " + exo, r * t});
  }

  Table table({"family", "supports", "|Dn|", "path", "request_ms",
               "evaluate_ms", "ratio"},
              {9, 10, 6, 10, 12, 13, 8});
  table.PrintHeader();

  for (const Instance& instance : instances) {
    auto schema = Schema::Create();
    QueryPtr query = ParseUcq(schema, instance.query)->disjuncts()[0];
    auto opaque = std::make_shared<OpaqueQuery>(query);
    const PartitionedDatabase db =
        ParsePartitionedDatabase(schema, instance.db);

    std::vector<double> request, evaluate;
    bool memo_path = false;
    for (size_t rep = 0; rep < reps; ++rep) {
      for (const BooleanQuery* q : {query.get(),
                                    static_cast<const BooleanQuery*>(
                                        opaque.get())}) {
        // A fresh cache per request: its memo table shows which path ran.
        OracleCache cache;
        SamplingSvc sampler(ApproxParams{.epsilon = 0.07,
                                         .delta = 0.05,
                                         .seed = rep + 1,
                                         .strategy =
                                             ApproxStrategy::kBernstein});
        sampler.set_exec_context(ExecContext{nullptr, &cache});
        Timer timer;
        sampler.AllValues(*q, db);
        const double ms = timer.ElapsedMs();
        if (q == query.get()) {
          request.push_back(ms);
          memo_path = cache.PerTableStats().memos.misses > 0;
        } else {
          evaluate.push_back(ms);
        }
      }
    }

    const std::string path = memo_path ? "evaluate" : "lineage";
    const double ratio = Median(request) / Median(evaluate);
    table.PrintRow(instance.family, instance.supports, db.NumEndogenous(),
                   path, Median(request), Median(evaluate), ratio);
    json.Row({{"name", "lineage_cap"},
              {"family", instance.family},
              {"supports", static_cast<double>(instance.supports)},
              {"endogenous", static_cast<double>(db.NumEndogenous())},
              {"path", path},
              {"request_ms", Median(request)},
              {"evaluate_ms", Median(evaluate)},
              {"ratio", ratio}});
  }
  json.Write();
  return 0;
}
