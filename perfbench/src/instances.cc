#include "instances.h"

#include "shapley/approx/rng.h"
#include "shapley/cluster/shard_map.h"
#include "shapley/data/parser.h"
#include "shapley/gen/generators.h"
#include "shapley/query/query_parser.h"

namespace perfbench {
namespace {

using shapley::SplitMix64;

shapley::QueryPtr Query(const std::shared_ptr<shapley::Schema>& schema,
                        const char* text) {
  return shapley::ParseUcq(schema, text)->disjuncts()[0];
}

/// R(x), S(x,y)[, T(y)] over `xs` x-constants and `ys` y-constants: every R
/// fact, every T fact (when `with_t`), and `edges` distinct S edges drawn at
/// random; `exo` random facts land in the exogenous part. Sizes are fixed,
/// so instances of one shape differ in structure, not in size.
std::string RandomDb(SplitMix64& rng, const std::string& tag, size_t xs,
                     size_t ys, size_t edges, bool with_t, size_t exo) {
  std::vector<std::string> facts;
  for (size_t i = 0; i < xs; ++i) {
    facts.push_back("R(" + tag + "a" + std::to_string(i) + ")");
  }
  if (with_t) {
    for (size_t j = 0; j < ys; ++j) {
      facts.push_back("T(" + tag + "b" + std::to_string(j) + ")");
    }
  }
  std::vector<size_t> cells(xs * ys);
  for (size_t c = 0; c < cells.size(); ++c) cells[c] = c;
  for (size_t k = 0; k < edges && k < cells.size(); ++k) {
    std::swap(cells[k], cells[k + rng.NextBelow(cells.size() - k)]);
    facts.push_back("S(" + tag + "a" + std::to_string(cells[k] / ys) + "," +
                    tag + "b" + std::to_string(cells[k] % ys) + ")");
  }
  std::vector<std::string> exogenous;
  for (size_t k = 0; k < exo && facts.size() > 1; ++k) {
    const size_t pick = rng.NextBelow(facts.size());
    exogenous.push_back(facts[pick]);
    facts.erase(facts.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  std::string text;
  for (const std::string& f : facts) text += f + " ";
  text += "|";
  for (const std::string& f : exogenous) text += " " + f;
  return text;
}

}  // namespace

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kSmallLifted:
      return "small-lifted";
    case Shape::kSmallBrute:
      return "small-brute";
    case Shape::kLifted:
      return "lifted";
    case Shape::kBrute:
      return "brute";
    case Shape::kSampled:
      return "sampled";
  }
  return "?";
}

bool IsSampled(Shape shape) { return shape == Shape::kSampled; }

bool IsLifted(Shape shape) {
  return shape == Shape::kSmallLifted || shape == Shape::kLifted;
}

Instance MakeInstance(const std::shared_ptr<shapley::Schema>& schema,
                      Shape shape, uint64_t seed, const std::string& stream,
                      uint64_t index, const SamplingKnobs& knobs) {
  SplitMix64 rng(shapley::MixSeed(seed, shapley::cluster::StableHash64(stream) ^
                                            (index * 0x9e3779b97f4a7c15ull)));
  const std::string tag = stream + std::to_string(index);
  Instance instance;
  instance.shape = shape;
  shapley::SvcRequest& r = instance.request;
  switch (shape) {
    case Shape::kSmallLifted:
      r.query = Query(schema, "R(x), S(x,y)");
      r.db = shapley::ParsePartitionedDatabase(
          schema, RandomDb(rng, tag, 2, 3, 5, false, 1));
      break;
    case Shape::kSmallBrute:
      r.query = Query(schema, "R(x), S(x,y), T(y)");
      r.db = shapley::ParsePartitionedDatabase(
          schema, RandomDb(rng, tag, 2, 2, 3, true, 1));
      break;
    case Shape::kLifted:
      r.query = Query(schema, "R(x), S(x,y)");
      r.db = shapley::ParsePartitionedDatabase(
          schema, RandomDb(rng, tag, 5, 6, 21, false, 2));
      break;
    case Shape::kBrute:
      r.query = Query(schema, "R(x), S(x,y), T(y)");
      r.db = shapley::ParsePartitionedDatabase(
          schema, RandomDb(rng, tag, 3, 3, 4, true, 1));
      break;
    case Shape::kSampled:
      r.query = Query(schema, "R(x), S(x,y), T(y)");
      // Redraw until |Dn| is the expected 10 + 25p, so every estimate
      // costs about the same.
      do {
        r.db = shapley::RstGadget(schema, 5, 5, knobs.edge_probability,
                                  rng.Next());
      } while (r.db.NumEndogenous() !=
               10 + static_cast<size_t>(25 * knobs.edge_probability + 0.5));
      r.engine = "sampling";
      r.approx.epsilon = knobs.epsilon;
      r.approx.delta = knobs.delta;
      r.approx.seed = rng.Next();
      r.approx.strategy = shapley::ApproxStrategy::kBernstein;
      break;
  }
  const bool with_all = r.query->Evaluate(r.db.AllFacts());
  const bool with_exo = r.query->Evaluate(r.db.exogenous());
  instance.efficiency = shapley::BigRational(static_cast<int64_t>(with_all) -
                                             static_cast<int64_t>(with_exo));
  return instance;
}

std::vector<Instance> MakeInstances(
    const std::shared_ptr<shapley::Schema>& schema,
    const std::vector<Shape>& shapes, uint64_t seed, const std::string& stream,
    size_t count, const SamplingKnobs& knobs) {
  std::vector<Instance> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(
        MakeInstance(schema, shapes[i % shapes.size()], seed, stream, i, knobs));
  }
  return out;
}

uint64_t Fingerprint(const std::vector<Instance>& instances) {
  uint64_t h = 0;
  for (const Instance& instance : instances) {
    h = shapley::MixSeed(h, shapley::cluster::StableHash64(
                                instance.request.query->ToString() + "|" +
                                instance.request.db.ToString()));
  }
  return h;
}

}  // namespace perfbench
