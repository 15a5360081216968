// Golden sampled estimates: literal expected renderings of SamplingSvc runs
// for fixed (query, instance, strategy, seed). Every run is repeated at 1 and
// 4 pool threads and with retired-walk truncation on and off, and all four
// must reproduce the one golden string exactly — values as rationals, the
// sample and checkpoint counts, the retirement count, and every per-fact
// sample count and certified half-width.
//
// The goldens pin the sampler's observable output across changes to how it
// decides prefix coalitions: whatever evaluates "S ∪ Dx |= q" (a query
// evaluation per prefix, or a precomputed lineage), the estimate for a given
// (request, seed) must not move by one bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "shapley/approx/sampling.h"
#include "shapley/automata/regex.h"
#include "shapley/data/parser.h"
#include "shapley/exec/thread_pool.h"
#include "shapley/query/path_query.h"
#include "shapley/query/query_parser.h"

namespace shapley {
namespace {

QueryPtr MakeQuery(const std::shared_ptr<Schema>& schema,
                   const std::string& text) {
  if (text.rfind("rpq ", 0) == 0) {
    // "rpq <regex>": a path query from constant a to constant d.
    return RegularPathQuery::Create(schema, Regex::Parse(text.substr(4)),
                                    Constant::Named("a"),
                                    Constant::Named("d"));
  }
  UcqPtr ucq = ParseUcq(schema, text);
  if (ucq->disjuncts().size() == 1) return ucq->disjuncts()[0];
  return ucq;
}

std::string Double(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

/// One line per endogenous fact (sorted by text, so the rendering does not
/// depend on interner ids), then the run-level counters.
std::string Render(const PartitionedDatabase& db,
                   const std::map<Fact, BigRational>& values,
                   const ApproxInfo& info) {
  const auto& endo = db.endogenous().facts();
  std::vector<std::string> lines;
  for (size_t i = 0; i < endo.size(); ++i) {
    lines.push_back(endo[i].ToString(*db.schema()) + " " +
                    values.at(endo[i]).ToString() +
                    " n=" + std::to_string(info.fact_samples[i]) +
                    " hw=" + Double(info.fact_half_widths[i]));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  out += "samples=" + std::to_string(info.samples) +
         " checkpoints=" + std::to_string(info.checkpoints) +
         " retired=" + std::to_string(info.facts_retired) +
         " half_width=" + Double(info.half_width) + "\n";
  return out;
}

struct Golden {
  const char* query;
  const char* db;
  ApproxStrategy strategy;
  const char* expected;
};

constexpr const char* kRst = "R(x), S(x,y), T(y)";
constexpr const char* kRstDb =
    "R(a) R(b) S(a,b) S(b,c) S(a,c) T(b) T(c) S(c,a) S(c,d) T(d) | R(c) T(a)";

// Instances: a mixed endogenous/exogenous instance per query class; plus,
// for the non-hierarchical CQ, one with facts in no support (they retire
// early, so the adaptive strategies truncate walks around them), one whose
// Dx alone satisfies q (certainly true: every marginal is 0) and one with
// no support at all (the query is false on every sub-database). The negated
// query exercises the non-monotone path.
const Golden kGoldens[] = {
    {"R(x), S(x,y)",
     "R(a) R(b) R(c) S(a,c) S(a,d) S(b,c) S(b,e) | R(d) S(c,a)",
     ApproxStrategy::kHoeffding,
     "R(a) 61/369 n=738 hw=0.049992407649266275\n"
     "R(b) 37/246 n=738 hw=0.049992407649266275\n"
     "R(c) 109/246 n=738 hw=0.049992407649266275\n"
     "S(a,c) 43/738 n=738 hw=0.049992407649266275\n"
     "S(a,d) 19/369 n=738 hw=0.049992407649266275\n"
     "S(b,c) 8/123 n=738 hw=0.049992407649266275\n"
     "S(b,e) 49/738 n=738 hw=0.049992407649266275\n"
     "samples=738 checkpoints=0 retired=0 half_width=0.049992407649266275\n"},
    {"R(x), S(x,y)",
     "R(a) R(b) R(c) S(a,c) S(a,d) S(b,c) S(b,e) | R(d) S(c,a)",
     ApproxStrategy::kBernstein,
     "R(a) 61/369 n=738 hw=0.054487179533527795\n"
     "R(b) 37/246 n=738 hw=0.054487179533527795\n"
     "R(c) 109/246 n=738 hw=0.054487179533527795\n"
     "S(a,c) 43/738 n=738 hw=0.054487179533527795\n"
     "S(a,d) 19/369 n=738 hw=0.054487179533527795\n"
     "S(b,c) 8/123 n=738 hw=0.054487179533527795\n"
     "S(b,e) 49/738 n=738 hw=0.054487179533527795\n"
     "samples=738 checkpoints=6 retired=0 half_width=0.054487179533527795\n"},
    {"R(x), S(x,y)",
     "R(a) R(b) R(c) S(a,c) S(a,d) S(b,c) S(b,e) | R(d) S(c,a)",
     ApproxStrategy::kStratified,
     "R(a) 115/738 n=738 hw=0.077056508271772739\n"
     "R(b) 52/369 n=738 hw=0.077056508271772739\n"
     "R(c) 169/369 n=738 hw=0.077056508271772739\n"
     "S(a,c) 1/18 n=738 hw=0.077056508271772739\n"
     "S(a,d) 35/738 n=738 hw=0.077056508271772739\n"
     "S(b,c) 17/246 n=738 hw=0.077056508271772739\n"
     "S(b,e) 3/41 n=738 hw=0.077056508271772739\n"
     "samples=738 checkpoints=6 retired=0 half_width=0.077056508271772739\n"},
    {kRst,
     kRstDb,
     ApproxStrategy::kHoeffding,
     "R(a) 28/369 n=738 hw=0.049992407649266275\n"
     "R(b) 4/123 n=738 hw=0.049992407649266275\n"
     "S(a,b) 23/738 n=738 hw=0.049992407649266275\n"
     "S(a,c) 25/738 n=738 hw=0.049992407649266275\n"
     "S(b,c) 5/246 n=738 hw=0.049992407649266275\n"
     "S(c,a) 359/738 n=738 hw=0.049992407649266275\n"
     "S(c,d) 37/369 n=738 hw=0.049992407649266275\n"
     "T(b) 14/369 n=738 hw=0.049992407649266275\n"
     "T(c) 22/369 n=738 hw=0.049992407649266275\n"
     "T(d) 5/41 n=738 hw=0.049992407649266275\n"
     "samples=738 checkpoints=0 retired=0 half_width=0.049992407649266275\n"},
    {kRst,
     kRstDb,
     ApproxStrategy::kBernstein,
     "R(a) 28/369 n=738 hw=0.054487179533527795\n"
     "R(b) 4/123 n=738 hw=0.054487179533527795\n"
     "S(a,b) 23/738 n=738 hw=0.054487179533527795\n"
     "S(a,c) 25/738 n=738 hw=0.054487179533527795\n"
     "S(b,c) 5/246 n=738 hw=0.054487179533527795\n"
     "S(c,a) 359/738 n=738 hw=0.054487179533527795\n"
     "S(c,d) 37/369 n=738 hw=0.054487179533527795\n"
     "T(b) 14/369 n=738 hw=0.054487179533527795\n"
     "T(c) 22/369 n=738 hw=0.054487179533527795\n"
     "T(d) 5/41 n=738 hw=0.054487179533527795\n"
     "samples=738 checkpoints=6 retired=0 half_width=0.054487179533527795\n"},
    {kRst,
     kRstDb,
     ApproxStrategy::kStratified,
     "R(a) 47/738 n=738 hw=0.077056508271772739\n"
     "R(b) 7/246 n=738 hw=0.077056508271772739\n"
     "S(a,b) 10/369 n=738 hw=0.077056508271772739\n"
     "S(a,c) 7/246 n=738 hw=0.077056508271772739\n"
     "S(b,c) 7/246 n=738 hw=0.077056508271772739\n"
     "S(c,a) 371/738 n=738 hw=0.077056508271772739\n"
     "S(c,d) 14/123 n=738 hw=0.077056508271772739\n"
     "T(b) 11/369 n=738 hw=0.077056508271772739\n"
     "T(c) 17/246 n=738 hw=0.077056508271772739\n"
     "T(d) 40/369 n=738 hw=0.077056508271772739\n"
     "samples=738 checkpoints=6 retired=0 half_width=0.077056508271772739\n"},
    {"R(x,y), R(y,z)",
     "R(a,b) R(b,c) R(c,a) R(a,d) R(d,d) R(c,e) R(e,f) | R(f,a)",
     ApproxStrategy::kHoeffding,
     "R(a,b) 181/738 n=738 hw=0.049992407649266275\n"
     "R(a,d) 2/9 n=738 hw=0.049992407649266275\n"
     "R(b,c) 43/738 n=738 hw=0.049992407649266275\n"
     "R(c,a) 7/369 n=738 hw=0.049992407649266275\n"
     "R(c,e) 10/369 n=738 hw=0.049992407649266275\n"
     "R(d,d) 155/738 n=738 hw=0.049992407649266275\n"
     "R(e,f) 161/738 n=738 hw=0.049992407649266275\n"
     "samples=738 checkpoints=0 retired=0 half_width=0.049992407649266275\n"},
    {"R(x,y), R(y,z)",
     "R(a,b) R(b,c) R(c,a) R(a,d) R(d,d) R(c,e) R(e,f) | R(f,a)",
     ApproxStrategy::kBernstein,
     "R(a,b) 181/738 n=738 hw=0.054487179533527795\n"
     "R(a,d) 2/9 n=738 hw=0.054487179533527795\n"
     "R(b,c) 43/738 n=738 hw=0.054487179533527795\n"
     "R(c,a) 7/369 n=738 hw=0.054487179533527795\n"
     "R(c,e) 10/369 n=738 hw=0.054487179533527795\n"
     "R(d,d) 155/738 n=738 hw=0.054487179533527795\n"
     "R(e,f) 161/738 n=738 hw=0.054487179533527795\n"
     "samples=738 checkpoints=6 retired=0 half_width=0.054487179533527795\n"},
    {"R(x,y), R(y,z)",
     "R(a,b) R(b,c) R(c,a) R(a,d) R(d,d) R(c,e) R(e,f) | R(f,a)",
     ApproxStrategy::kStratified,
     "R(a,b) 185/738 n=738 hw=0.077056508271772739\n"
     "R(a,d) 85/369 n=738 hw=0.077056508271772739\n"
     "R(b,c) 7/123 n=738 hw=0.077056508271772739\n"
     "R(c,a) 17/738 n=738 hw=0.077056508271772739\n"
     "R(c,e) 7/369 n=738 hw=0.077056508271772739\n"
     "R(d,d) 49/246 n=738 hw=0.077056508271772739\n"
     "R(e,f) 163/738 n=738 hw=0.077056508271772739\n"
     "samples=738 checkpoints=6 retired=0 half_width=0.077056508271772739\n"},
    {"R(x), S(x,y) | T(x), U(x)",
     "R(a) S(a,b) T(b) U(c) T(c) S(c,d) R(d) | U(b)",
     ApproxStrategy::kHoeffding,
     "R(a) 43/369 n=738 hw=0.049992407649266275\n"
     "R(d) 0 n=738 hw=0.049992407649266275\n"
     "S(a,b) 46/369 n=738 hw=0.049992407649266275\n"
     "S(c,d) 0 n=738 hw=0.049992407649266275\n"
     "T(b) 200/369 n=738 hw=0.049992407649266275\n"
     "T(c) 71/738 n=738 hw=0.049992407649266275\n"
     "U(c) 89/738 n=738 hw=0.049992407649266275\n"
     "samples=738 checkpoints=0 retired=0 half_width=0.049992407649266275\n"},
    {"R(x), S(x,y) | T(x), U(x)",
     "R(a) S(a,b) T(b) U(c) T(c) S(c,d) R(d) | U(b)",
     ApproxStrategy::kBernstein,
     "R(a) 43/369 n=738 hw=0.054487179533527795\n"
     "R(d) 0 n=512 hw=0.045604828220718971\n"
     "S(a,b) 46/369 n=738 hw=0.054487179533527795\n"
     "S(c,d) 0 n=512 hw=0.045604828220718971\n"
     "T(b) 200/369 n=738 hw=0.054487179533527795\n"
     "T(c) 71/738 n=738 hw=0.054487179533527795\n"
     "U(c) 89/738 n=738 hw=0.054487179533527795\n"
     "samples=738 checkpoints=6 retired=2 half_width=0.054487179533527795\n"},
    {"R(x), S(x,y) | T(x), U(x)",
     "R(a) S(a,b) T(b) U(c) T(c) S(c,d) R(d) | U(b)",
     ApproxStrategy::kStratified,
     "R(a) 85/738 n=738 hw=0.077056508271772739\n"
     "R(d) 0 n=738 hw=0.069310254968011506\n"
     "S(a,b) 97/738 n=738 hw=0.077056508271772739\n"
     "S(c,d) 0 n=738 hw=0.069310254968011506\n"
     "T(b) 193/369 n=738 hw=0.077056508271772739\n"
     "T(c) 5/41 n=738 hw=0.077056508271772739\n"
     "U(c) 40/369 n=738 hw=0.077056508271772739\n"
     "samples=738 checkpoints=6 retired=0 half_width=0.077056508271772739\n"},
    {"rpq A A | B",
     "A(a,b) A(b,d) B(a,d) A(a,c) A(c,d) B(b,d) A(c,b) | A(d,a) B(c,d)",
     ApproxStrategy::kHoeffding,
     "A(a,b) 85/738 n=738 hw=0.049992407649266275\n"
     "A(a,c) 47/369 n=738 hw=0.049992407649266275\n"
     "A(b,d) 95/738 n=738 hw=0.049992407649266275\n"
     "A(c,b) 0 n=738 hw=0.049992407649266275\n"
     "A(c,d) 40/369 n=738 hw=0.049992407649266275\n"
     "B(a,d) 64/123 n=738 hw=0.049992407649266275\n"
     "B(b,d) 0 n=738 hw=0.049992407649266275\n"
     "samples=738 checkpoints=0 retired=0 half_width=0.049992407649266275\n"},
    {"rpq A A | B",
     "A(a,b) A(b,d) B(a,d) A(a,c) A(c,d) B(b,d) A(c,b) | A(d,a) B(c,d)",
     ApproxStrategy::kBernstein,
     "A(a,b) 85/738 n=738 hw=0.054487179533527795\n"
     "A(a,c) 47/369 n=738 hw=0.054487179533527795\n"
     "A(b,d) 95/738 n=738 hw=0.054487179533527795\n"
     "A(c,b) 0 n=512 hw=0.045604828220718971\n"
     "A(c,d) 40/369 n=738 hw=0.054487179533527795\n"
     "B(a,d) 64/123 n=738 hw=0.054487179533527795\n"
     "B(b,d) 0 n=512 hw=0.045604828220718971\n"
     "samples=738 checkpoints=6 retired=2 half_width=0.054487179533527795\n"},
    {"rpq A A | B",
     "A(a,b) A(b,d) B(a,d) A(a,c) A(c,d) B(b,d) A(c,b) | A(d,a) B(c,d)",
     ApproxStrategy::kStratified,
     "A(a,b) 14/123 n=738 hw=0.077056508271772739\n"
     "A(a,c) 29/246 n=738 hw=0.077056508271772739\n"
     "A(b,d) 31/246 n=738 hw=0.077056508271772739\n"
     "A(c,b) 0 n=738 hw=0.069310254968011506\n"
     "A(c,d) 1/9 n=738 hw=0.077056508271772739\n"
     "B(a,d) 196/369 n=738 hw=0.077056508271772739\n"
     "B(b,d) 0 n=738 hw=0.069310254968011506\n"
     "samples=738 checkpoints=6 retired=0 half_width=0.077056508271772739\n"},
    {"R(x), S(x,y), !T(y)",
     kRstDb,
     ApproxStrategy::kHoeffding,
     "R(a) 8/41 n=738 hw=0.049992407649266275\n"
     "R(b) 32/369 n=738 hw=0.049992407649266275\n"
     "S(a,b) 71/738 n=738 hw=0.049992407649266275\n"
     "S(a,c) 61/738 n=738 hw=0.049992407649266275\n"
     "S(b,c) 10/123 n=738 hw=0.049992407649266275\n"
     "S(c,a) 0 n=738 hw=0.049992407649266275\n"
     "S(c,d) 4/9 n=738 hw=0.049992407649266275\n"
     "T(b) -59/246 n=738 hw=0.049992407649266275\n"
     "T(c) -14/41 n=738 hw=0.049992407649266275\n"
     "T(d) -299/738 n=738 hw=0.049992407649266275\n"
     "samples=738 checkpoints=0 retired=0 half_width=0.049992407649266275\n"},
    {"R(x), S(x,y), !T(y)",
     kRstDb,
     ApproxStrategy::kBernstein,
     "R(a) 8/41 n=738 hw=0.054487179533527795\n"
     "R(b) 32/369 n=738 hw=0.054487179533527795\n"
     "S(a,b) 71/738 n=738 hw=0.054487179533527795\n"
     "S(a,c) 61/738 n=738 hw=0.054487179533527795\n"
     "S(b,c) 10/123 n=738 hw=0.054487179533527795\n"
     "S(c,a) 0 n=512 hw=0.045604828220718971\n"
     "S(c,d) 4/9 n=738 hw=0.054487179533527795\n"
     "T(b) -59/246 n=738 hw=0.054487179533527795\n"
     "T(c) -14/41 n=738 hw=0.054487179533527795\n"
     "T(d) -299/738 n=738 hw=0.054487179533527795\n"
     "samples=738 checkpoints=6 retired=1 half_width=0.054487179533527795\n"},
    {"R(x), S(x,y), !T(y)",
     kRstDb,
     ApproxStrategy::kStratified,
     "R(a) 161/738 n=738 hw=0.077056508271772739\n"
     "R(b) 3/41 n=738 hw=0.077056508271772739\n"
     "S(a,b) 71/738 n=738 hw=0.077056508271772739\n"
     "S(a,c) 31/369 n=738 hw=0.077056508271772739\n"
     "S(b,c) 19/246 n=738 hw=0.077056508271772739\n"
     "S(c,a) 0 n=738 hw=0.069310254968011506\n"
     "S(c,d) 101/246 n=738 hw=0.077056508271772739\n"
     "T(b) -83/369 n=738 hw=0.077056508271772739\n"
     "T(c) -257/738 n=738 hw=0.077056508271772739\n"
     "T(d) -95/246 n=738 hw=0.077056508271772739\n"
     "samples=738 checkpoints=6 retired=0 half_width=0.077056508271772739\n"},
    {kRst,
     "R(a) S(a,b) T(b) R(c) S(c,d) T(d) T(e) T(f) R(g) S(g,h) S(i,e) | T(h)",
     ApproxStrategy::kHoeffding,
     "R(a) 19/246 n=738 hw=0.049992407649266275\n"
     "R(c) 79/738 n=738 hw=0.049992407649266275\n"
     "R(g) 9/41 n=738 hw=0.049992407649266275\n"
     "S(a,b) 73/738 n=738 hw=0.049992407649266275\n"
     "S(c,d) 40/369 n=738 hw=0.049992407649266275\n"
     "S(g,h) 79/369 n=738 hw=0.049992407649266275\n"
     "S(i,e) 0 n=738 hw=0.049992407649266275\n"
     "T(b) 35/369 n=738 hw=0.049992407649266275\n"
     "T(d) 59/738 n=738 hw=0.049992407649266275\n"
     "T(e) 0 n=738 hw=0.049992407649266275\n"
     "T(f) 0 n=738 hw=0.049992407649266275\n"
     "samples=738 checkpoints=0 retired=0 half_width=0.049992407649266275\n"},
    {kRst,
     "R(a) S(a,b) T(b) R(c) S(c,d) T(d) T(e) T(f) R(g) S(g,h) S(i,e) | T(h)",
     ApproxStrategy::kBernstein,
     "R(a) 19/246 n=738 hw=0.054487179533527795\n"
     "R(c) 79/738 n=738 hw=0.054487179533527795\n"
     "R(g) 9/41 n=738 hw=0.054487179533527795\n"
     "S(a,b) 73/738 n=738 hw=0.054487179533527795\n"
     "S(c,d) 40/369 n=738 hw=0.054487179533527795\n"
     "S(g,h) 79/369 n=738 hw=0.054487179533527795\n"
     "S(i,e) 0 n=512 hw=0.045604828220718971\n"
     "T(b) 35/369 n=738 hw=0.054487179533527795\n"
     "T(d) 59/738 n=738 hw=0.054487179533527795\n"
     "T(e) 0 n=512 hw=0.045604828220718971\n"
     "T(f) 0 n=512 hw=0.045604828220718971\n"
     "samples=738 checkpoints=6 retired=3 half_width=0.054487179533527795\n"},
    {kRst,
     "R(a) S(a,b) T(b) R(c) S(c,d) T(d) T(e) T(f) R(g) S(g,h) S(i,e) | T(h)",
     ApproxStrategy::kStratified,
     "R(a) 32/369 n=738 hw=0.077056508271772739\n"
     "R(c) 67/738 n=738 hw=0.077056508271772739\n"
     "R(g) 169/738 n=738 hw=0.077056508271772739\n"
     "S(a,b) 67/738 n=738 hw=0.077056508271772739\n"
     "S(c,d) 34/369 n=738 hw=0.077056508271772739\n"
     "S(g,h) 19/82 n=738 hw=0.077056508271772739\n"
     "S(i,e) 0 n=738 hw=0.069310254968011506\n"
     "T(b) 61/738 n=738 hw=0.077056508271772739\n"
     "T(d) 71/738 n=738 hw=0.077056508271772739\n"
     "T(e) 0 n=738 hw=0.069310254968011506\n"
     "T(f) 0 n=738 hw=0.069310254968011506\n"
     "samples=738 checkpoints=6 retired=0 half_width=0.077056508271772739\n"},
    {kRst,
     "R(a) S(a,b) R(c) S(c,d) T(d) T(b) | R(e) S(e,f) T(f)",
     ApproxStrategy::kHoeffding,
     "R(a) 0 n=738 hw=0.049992407649266275\n"
     "R(c) 0 n=738 hw=0.049992407649266275\n"
     "S(a,b) 0 n=738 hw=0.049992407649266275\n"
     "S(c,d) 0 n=738 hw=0.049992407649266275\n"
     "T(b) 0 n=738 hw=0.049992407649266275\n"
     "T(d) 0 n=738 hw=0.049992407649266275\n"
     "samples=738 checkpoints=0 retired=0 half_width=0.049992407649266275\n"},
    {kRst,
     "R(a) S(a,b) R(c) S(c,d) T(d) T(b) | R(e) S(e,f) T(f)",
     ApproxStrategy::kBernstein,
     "R(a) 0 n=512 hw=0.045604828220718971\n"
     "R(c) 0 n=512 hw=0.045604828220718971\n"
     "S(a,b) 0 n=512 hw=0.045604828220718971\n"
     "S(c,d) 0 n=512 hw=0.045604828220718971\n"
     "T(b) 0 n=512 hw=0.045604828220718971\n"
     "T(d) 0 n=512 hw=0.045604828220718971\n"
     "samples=512 checkpoints=4 retired=6 half_width=0.045604828220718971\n"},
    {kRst,
     "R(a) S(a,b) R(c) S(c,d) T(d) T(b) | R(e) S(e,f) T(f)",
     ApproxStrategy::kStratified,
     "R(a) 0 n=738 hw=0.069310254968011506\n"
     "R(c) 0 n=738 hw=0.069310254968011506\n"
     "S(a,b) 0 n=738 hw=0.069310254968011506\n"
     "S(c,d) 0 n=738 hw=0.069310254968011506\n"
     "T(b) 0 n=738 hw=0.069310254968011506\n"
     "T(d) 0 n=738 hw=0.069310254968011506\n"
     "samples=738 checkpoints=6 retired=0 half_width=0.069310254968011506\n"},
    {kRst,
     "R(a) R(b) S(a,c) S(b,f) T(d) T(e) | S(d,e)",
     ApproxStrategy::kHoeffding,
     "R(a) 0 n=738 hw=0.049992407649266275\n"
     "R(b) 0 n=738 hw=0.049992407649266275\n"
     "S(a,c) 0 n=738 hw=0.049992407649266275\n"
     "S(b,f) 0 n=738 hw=0.049992407649266275\n"
     "T(d) 0 n=738 hw=0.049992407649266275\n"
     "T(e) 0 n=738 hw=0.049992407649266275\n"
     "samples=738 checkpoints=0 retired=0 half_width=0.049992407649266275\n"},
    {kRst,
     "R(a) R(b) S(a,c) S(b,f) T(d) T(e) | S(d,e)",
     ApproxStrategy::kBernstein,
     "R(a) 0 n=512 hw=0.045604828220718971\n"
     "R(b) 0 n=512 hw=0.045604828220718971\n"
     "S(a,c) 0 n=512 hw=0.045604828220718971\n"
     "S(b,f) 0 n=512 hw=0.045604828220718971\n"
     "T(d) 0 n=512 hw=0.045604828220718971\n"
     "T(e) 0 n=512 hw=0.045604828220718971\n"
     "samples=512 checkpoints=4 retired=6 half_width=0.045604828220718971\n"},
    {kRst,
     "R(a) R(b) S(a,c) S(b,f) T(d) T(e) | S(d,e)",
     ApproxStrategy::kStratified,
     "R(a) 0 n=738 hw=0.069310254968011506\n"
     "R(b) 0 n=738 hw=0.069310254968011506\n"
     "S(a,c) 0 n=738 hw=0.069310254968011506\n"
     "S(b,f) 0 n=738 hw=0.069310254968011506\n"
     "T(d) 0 n=738 hw=0.069310254968011506\n"
     "T(e) 0 n=738 hw=0.069310254968011506\n"
     "samples=738 checkpoints=6 retired=0 half_width=0.069310254968011506\n"},
};

TEST(SamplingGolden, EstimatesMatchTheGoldensAtEveryThreadCountAndTruncation) {
  ThreadPool pool(4);
  for (const Golden& golden : kGoldens) {
    for (size_t threads : {1, 4}) {
      for (bool truncate : {true, false}) {
        SCOPED_TRACE(std::string(golden.query) + " over " + golden.db + " " +
                     ToString(golden.strategy) + " threads=" +
                     std::to_string(threads) +
                     " truncate=" + std::to_string(truncate));
        auto schema = Schema::Create();
        QueryPtr query = MakeQuery(schema, golden.query);
        PartitionedDatabase db = ParsePartitionedDatabase(schema, golden.db);
        SamplingSvc sampler(ApproxParams{.epsilon = 0.05,
                                         .delta = 0.05,
                                         .seed = 2024,
                                         .strategy = golden.strategy});
        sampler.set_truncate_retired_walks(truncate);
        if (threads > 1) sampler.set_exec_context(ExecContext{&pool, nullptr});
        const std::map<Fact, BigRational> values =
            sampler.AllValues(*query, db);
        EXPECT_EQ(Render(db, values, sampler.last_info()), golden.expected);
      }
    }
  }
}

}  // namespace
}  // namespace shapley
