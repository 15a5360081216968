// Error-vs-samples convergence of the Monte Carlo sampling engine on an
// instance BEYOND the brute-force guard (|Dn| > 25, where the exhaustive
// engines refuse to run): the query is kept hierarchical so the lifted
// polynomial engine provides the exact reference, and the sampler's
// empirical max/mean absolute error is tracked against the Hoeffding
// half-width its (ε, δ) contract certifies at each sample count. The
// self-check asserts the certificate holds at every point of the curve —
// deterministic under the fixed seed, so it can never flake, only regress.
//
// Flags: --facts N        target fact count           (default 48)
//        --threads N      sampling pool width         (default 4)
//        --samples-max M  largest sample count tried  (default 4096)
//        --json PATH      machine-readable rows (BENCH_approx.json format)

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "shapley/approx/sampling.h"
#include "shapley/engines/fgmc.h"
#include "shapley/engines/svc.h"
#include "shapley/exec/thread_pool.h"
#include "shapley/gen/generators.h"
#include "shapley/query/query_parser.h"

using namespace shapley;
using shapley::bench::Banner;
using shapley::bench::JsonReporter;
using shapley::bench::PassFail;
using shapley::bench::Table;
using shapley::bench::Timer;

int main(int argc, char** argv) {
  size_t facts = 48;
  size_t threads = 4;
  size_t samples_max = 4096;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--facts" && i + 1 < argc) {
      facts = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--samples-max" && i + 1 < argc) {
      samples_max = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  JsonReporter json =
      JsonReporter::FromArgs(argc, argv, "bench_approx_convergence");

  Banner("Sampling-engine convergence beyond the brute-force guard");

  auto schema = Schema::Create();
  UcqPtr parsed = ParseUcq(schema, "R(x), S(x,y)");
  QueryPtr query = parsed->disjuncts()[0];

  // Grow the random instance until it is genuinely out of the exhaustive
  // engines' reach (duplicate draws merge, so ask for more than needed).
  // Fully endogenous: an exogenous part that already satisfies the
  // monotone query would pin every value to exactly 0 and the curve would
  // measure nothing.
  RandomDatabaseOptions options;
  options.num_facts = std::max<size_t>(facts, 32);
  options.domain_size = 8;
  options.exogenous_fraction = 0.0;
  options.seed = 29;
  PartitionedDatabase db = RandomPartitionedDatabase(schema, options);
  while (db.NumEndogenous() <= kBruteForceMaxEndogenous) {
    options.num_facts += 8;
    db = RandomPartitionedDatabase(schema, options);
  }
  const size_t n = db.NumEndogenous();
  std::cout << "instance: hierarchical sjf-CQ over |Dn| = " << n
            << " endogenous facts (brute-force guard: "
            << kBruteForceMaxEndogenous
            << ") — exact reference from the lifted polynomial engine\n";

  SvcViaFgmc lifted(std::make_shared<LiftedFgmc>());
  Timer exact_timer;
  std::map<Fact, BigRational> exact = lifted.AllValues(*query, db);
  const double exact_ms = exact_timer.ElapsedMs();

  ThreadPool pool(threads);

  Table table({"samples", "half_width", "max_err", "mean_err", "wall_ms",
               "bounded"},
              {10, 13, 12, 12, 10, 10});
  table.PrintHeader();

  bool all_bounded = true;
  for (size_t samples = 64; samples <= samples_max; samples *= 4) {
    // Epsilon far below what the budget can certify, so max_samples is
    // the binding constraint and the sweep hits each count exactly.
    SamplingSvc sampler(ApproxParams{.epsilon = 1e-4,
                                     .delta = 0.05,
                                     .seed = 17,
                                     .max_samples = samples});
    sampler.set_exec_context(
        ExecContext{threads > 1 ? &pool : nullptr, nullptr});

    Timer timer;
    std::map<Fact, BigRational> estimate = sampler.AllValues(*query, db);
    const double wall_ms = timer.ElapsedMs();

    double max_err = 0.0, sum_err = 0.0;
    for (const auto& [fact, value] : estimate) {
      const double err =
          std::abs(value.ToDouble() - exact.at(fact).ToDouble());
      max_err = std::max(max_err, err);
      sum_err += err;
    }
    const double mean_err = sum_err / static_cast<double>(n);
    const ApproxInfo& info = sampler.last_info();
    const bool bounded = max_err <= info.half_width;
    all_bounded = all_bounded && bounded;

    table.PrintRow(samples, info.half_width, max_err, mean_err, wall_ms,
                   PassFail(bounded));
    json.Row({{"name", "convergence"},
              {"facts", static_cast<double>(n)},
              {"threads", static_cast<double>(threads)},
              {"samples", static_cast<double>(samples)},
              {"half_width", info.half_width},
              {"max_abs_error", max_err},
              {"mean_abs_error", mean_err},
              {"wall_ms", wall_ms},
              {"exact_ms", exact_ms},
              {"bounded", bounded ? "yes" : "no"}});
  }

  std::cout << "exact (lifted) reference: " << exact_ms << " ms\n"
            << "self-check (max error within the certified half-width at "
               "every sample count): "
            << PassFail(all_bounded) << "\n";
  json.Write();
  return all_bounded ? 0 : 1;
}
