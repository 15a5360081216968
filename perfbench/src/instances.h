// Seeded instance generators. Every instance is a pure function of
// (workload seed, stream, index); the program under test only ever sees the
// generated requests.
#ifndef PERFBENCH_INSTANCES_H_
#define PERFBENCH_INSTANCES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "shapley/arith/big_rational.h"
#include "shapley/data/schema.h"
#include "shapley/service/request.h"

namespace perfbench {

enum class Shape {
  kSmallLifted,  ///< R(x),S(x,y), ~7 facts: lifted via-FGMC, tens of us.
  kSmallBrute,   ///< R(x),S(x,y),T(y), ~7 facts: brute force, tens of us.
  kLifted,       ///< R(x),S(x,y), |Dn| ~ 25: lifted via-FGMC, ~ms.
  kBrute,        ///< R(x),S(x,y),T(y), |Dn| ~ 9: brute force, ~ms.
  kSampled,      ///< RstGadget 5x5 under engine "sampling".
};

const char* ShapeName(Shape shape);
bool IsSampled(Shape shape);
bool IsLifted(Shape shape);

struct SamplingKnobs {
  double epsilon = 0.1;
  double delta = 0.05;
  double edge_probability = 0.4;
};

struct Instance {
  Shape shape = Shape::kSmallLifted;
  shapley::SvcRequest request;
  /// q(D) - q(Dx): what the Shapley values of an exact answer must sum to
  /// (the efficiency axiom).
  shapley::BigRational efficiency;
};

/// Instance `index` of `stream` for `seed`. Constants carry the stream tag
/// and index, so two different (stream, index) pairs never share a fact.
Instance MakeInstance(const std::shared_ptr<shapley::Schema>& schema,
                      Shape shape, uint64_t seed, const std::string& stream,
                      uint64_t index, const SamplingKnobs& knobs);

/// `count` instances alternating over `shapes`.
std::vector<Instance> MakeInstances(
    const std::shared_ptr<shapley::Schema>& schema,
    const std::vector<Shape>& shapes, uint64_t seed, const std::string& stream,
    size_t count, const SamplingKnobs& knobs);

/// Stable hash over the rendered instances, so a run can show which inputs
/// it measured.
uint64_t Fingerprint(const std::vector<Instance>& instances);

}  // namespace perfbench

#endif  // PERFBENCH_INSTANCES_H_
