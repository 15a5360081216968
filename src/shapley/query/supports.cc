#include "shapley/query/supports.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "shapley/common/macros.h"
#include "shapley/query/conjunction_query.h"
#include "shapley/query/hom_search.h"

namespace shapley {

namespace {

void RequireMonotone(const BooleanQuery& query) {
  if (!query.IsMonotone()) {
    throw std::invalid_argument(
        "supports: minimal-support machinery requires a monotone query, got " +
        query.ToString());
  }
}

// Keeps only inclusion-minimal databases, deduplicated.
std::vector<Database> FilterMinimal(std::vector<Database> candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [](const Database& a, const Database& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a.facts() < b.facts();
            });
  std::vector<Database> result;
  for (const Database& c : candidates) {
    bool dominated = false;
    for (const Database& kept : result) {
      if (kept.IsSubsetOf(c)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) result.push_back(c);
  }
  return result;
}

void CheckCap(size_t size, size_t cap) {
  if (size > cap) {
    throw std::invalid_argument(
        "EnumerateMinimalSupports: support count exceeds cap");
  }
}

// All homomorphism images of the disjunct's atoms in db.
std::vector<Database> HomomorphismImages(const ConjunctiveQuery& cq,
                                         const Database& db, size_t cap) {
  std::vector<Database> images;
  ForEachHomomorphism(cq.atoms(), db, [&](const Assignment& assignment) {
    Database image(db.schema());
    for (const Atom& atom : cq.atoms()) {
      image.Insert(atom.Instantiate(assignment));
    }
    images.push_back(std::move(image));
    CheckCap(images.size(), cap);
    return true;
  });
  return images;
}

// The homomorphism images of every disjunct of a UCQ.
std::vector<Database> DisjunctImages(const UnionQuery& ucq, const Database& db,
                                     size_t cap) {
  std::vector<Database> images;
  for (const CqPtr& disjunct : ucq.disjuncts()) {
    auto more = HomomorphismImages(*disjunct, db, cap);
    images.insert(images.end(), more.begin(), more.end());
    CheckCap(images.size(), cap);
  }
  return images;
}

// Minimal edge-sets supporting an accepting product walk from src to dst.
// Explores all walks that never revisit a (constant, state) pair; each
// minimal support is the edge set of such a walk (revisits can be cut).
std::vector<Database> PathSupports(const Database& db, const Dfa& dfa,
                                   Constant src, Constant dst, size_t cap) {
  std::vector<Database> found;
  if (dfa.AcceptsEmptyLanguage()) return found;
  if (src == dst && dfa.AcceptsEpsilon()) {
    found.push_back(Database(db.schema()));  // The empty support.
    return found;
  }

  // Adjacency with the originating fact attached.
  std::map<Constant, std::vector<std::pair<SymbolId, Fact>>> adjacency;
  for (const Fact& f : db.facts()) {
    if (f.arity() != 2) continue;
    for (SymbolId a = 0; a < dfa.symbol_names().size(); ++a) {
      auto rel = db.schema()->FindRelation(dfa.symbol_names()[a]);
      if (rel.has_value() && *rel == f.relation()) {
        adjacency[f.args()[0]].push_back({a, f});
      }
    }
  }

  std::set<std::pair<Constant, uint32_t>> on_walk;
  Database edges(db.schema());
  auto dfs = [&](auto&& self, Constant c, uint32_t s) -> void {
    if (c == dst && dfa.IsAccepting(s)) {
      // Record and stop extending: longer walks only add edges.
      found.push_back(edges);
      CheckCap(found.size(), cap);
      return;
    }
    auto it = adjacency.find(c);
    if (it == adjacency.end()) return;
    for (const auto& [symbol, fact] : it->second) {
      uint32_t next = dfa.Step(s, symbol);
      if (next == Dfa::kNoTransition) continue;
      Constant next_const = fact.args()[1];
      if (on_walk.count({next_const, next}) > 0) continue;
      on_walk.insert({next_const, next});
      bool inserted = edges.Insert(fact);
      self(self, next_const, next);
      if (inserted) edges.Remove(fact);
      on_walk.erase({next_const, next});
    }
  };
  on_walk.insert({src, dfa.StartState()});
  dfs(dfs, src, dfa.StartState());
  return found;
}

// Cross-product unions of per-part support lists.
std::vector<Database> UnionCombinations(
    const std::vector<std::vector<Database>>& parts,
    const std::shared_ptr<Schema>& schema, size_t cap) {
  std::vector<Database> result = {Database(schema)};
  for (const auto& part : parts) {
    std::vector<Database> next;
    for (const Database& prefix : result) {
      for (const Database& s : part) {
        next.push_back(prefix.Union(s));
        CheckCap(next.size(), cap);
      }
    }
    result = std::move(next);
    if (result.empty()) return result;  // Some part unsatisfiable.
  }
  return result;
}

std::vector<Database> EnumerateForCrpq(const ConjunctiveRegularPathQuery& crpq,
                                       const Database& db, size_t cap) {
  std::set<Constant> domain_set = db.Constants();
  for (Constant c : crpq.QueryConstants()) domain_set.insert(c);
  std::vector<Constant> domain(domain_set.begin(), domain_set.end());
  std::vector<Variable> vars;
  for (Variable v : crpq.Variables()) vars.push_back(v);

  std::vector<Database> candidates;
  Assignment assignment;
  auto resolve = [&](Term t) {
    return t.IsConstant() ? t.constant() : assignment.at(t.variable());
  };
  auto emit = [&]() {
    std::vector<std::vector<Database>> parts;
    for (size_t i = 0; i < crpq.path_atoms().size(); ++i) {
      parts.push_back(PathSupports(db, crpq.dfas()[i],
                                   resolve(crpq.path_atoms()[i].source),
                                   resolve(crpq.path_atoms()[i].target), cap));
      if (parts.back().empty()) return;  // Assignment infeasible.
    }
    for (Database& u : UnionCombinations(parts, db.schema(), cap)) {
      candidates.push_back(std::move(u));
      CheckCap(candidates.size(), cap);
    }
  };
  auto search = [&](auto&& self, size_t i) -> void {
    if (i == vars.size()) {
      emit();
      return;
    }
    for (Constant c : domain) {
      assignment[vars[i]] = c;
      self(self, i + 1);
    }
    assignment.erase(vars[i]);
  };
  search(search, 0);
  return candidates;
}

// Fallback: enumerate all subsets (only for small databases).
std::vector<Database> EnumerateBySubsets(const BooleanQuery& query,
                                         const Database& db, size_t cap) {
  if (db.size() > 24) {
    throw std::invalid_argument(
        "EnumerateMinimalSupports: generic fallback limited to 24 facts");
  }
  const auto& facts = db.facts();
  std::vector<Database> satisfying;
  for (uint64_t mask = 0; mask < (uint64_t{1} << facts.size()); ++mask) {
    Database subset(db.schema());
    for (size_t i = 0; i < facts.size(); ++i) {
      if (mask & (uint64_t{1} << i)) subset.Insert(facts[i]);
    }
    if (query.Evaluate(subset)) {
      satisfying.push_back(std::move(subset));
      CheckCap(satisfying.size(), cap);
    }
  }
  return satisfying;
}

}  // namespace

Database ShrinkToMinimalSupport(const BooleanQuery& query, Database db) {
  RequireMonotone(query);
  SHAPLEY_CHECK_MSG(query.Evaluate(db),
                    "ShrinkToMinimalSupport: db does not satisfy the query");
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Fact& f : db.facts()) {
      Database smaller = db;
      smaller.Remove(f);
      if (query.Evaluate(smaller)) {
        db = std::move(smaller);
        changed = true;
        break;
      }
    }
  }
  return db;
}

bool IsMinimalSupport(const BooleanQuery& query, const Database& db) {
  RequireMonotone(query);
  if (!query.Evaluate(db)) return false;
  for (const Fact& f : db.facts()) {
    Database smaller = db;
    smaller.Remove(f);
    if (query.Evaluate(smaller)) return false;
  }
  return true;
}

std::vector<Database> EnumerateMinimalSupports(const BooleanQuery& query,
                                               const Database& db,
                                               size_t cap) {
  RequireMonotone(query);
  std::vector<Database> candidates;

  if (const auto* cq = dynamic_cast<const ConjunctiveQuery*>(&query)) {
    candidates = HomomorphismImages(*cq, db, cap);
  } else if (const auto* ucq = dynamic_cast<const UnionQuery*>(&query)) {
    candidates = DisjunctImages(*ucq, db, cap);
  } else if (const auto* rpq = dynamic_cast<const RegularPathQuery*>(&query)) {
    candidates = PathSupports(db, rpq->dfa(), rpq->source(), rpq->target(), cap);
  } else if (const auto* crpq =
                 dynamic_cast<const ConjunctiveRegularPathQuery*>(&query)) {
    candidates = EnumerateForCrpq(*crpq, db, cap);
  } else if (const auto* ucrpq = dynamic_cast<const UnionCrpq*>(&query)) {
    for (const CrpqPtr& disjunct : ucrpq->disjuncts()) {
      auto subs = EnumerateForCrpq(*disjunct, db, cap);
      candidates.insert(candidates.end(), subs.begin(), subs.end());
      CheckCap(candidates.size(), cap);
    }
  } else if (const auto* conj = dynamic_cast<const ConjunctionQuery*>(&query)) {
    std::vector<std::vector<Database>> parts;
    parts.push_back(EnumerateMinimalSupports(*conj->left(), db, cap));
    parts.push_back(EnumerateMinimalSupports(*conj->right(), db, cap));
    candidates = UnionCombinations(parts, db.schema(), cap);
  } else {
    candidates = EnumerateBySubsets(query, db, cap);
  }

  return FilterMinimal(std::move(candidates));
}

std::vector<Database> EnumerateHomImages(const BooleanQuery& query,
                                         const Database& db, size_t cap) {
  RequireMonotone(query);
  if (const auto* cq = dynamic_cast<const ConjunctiveQuery*>(&query)) {
    return HomomorphismImages(*cq, db, cap);
  }
  if (const auto* ucq = dynamic_cast<const UnionQuery*>(&query)) {
    return DisjunctImages(*ucq, db, cap);
  }
  if (const auto* conj = dynamic_cast<const ConjunctionQuery*>(&query)) {
    std::vector<std::vector<Database>> parts;
    parts.push_back(EnumerateHomImages(*conj->left(), db, cap));
    parts.push_back(EnumerateHomImages(*conj->right(), db, cap));
    return UnionCombinations(parts, db.schema(), cap);
  }
  throw std::invalid_argument("EnumerateHomImages: supports of " +
                              query.ToString() +
                              " are not homomorphism images of a CQ or UCQ");
}

CqPtr CoreOfCq(const ConjunctiveQuery& cq) {
  if (cq.HasNegation()) {
    throw std::invalid_argument("CoreOfCq: defined for positive CQs only");
  }
  // Deduplicate atoms first.
  std::vector<Atom> atoms = cq.atoms();
  std::sort(atoms.begin(), atoms.end());
  atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());

  bool changed = true;
  while (changed && atoms.size() > 1) {
    changed = false;
    for (size_t i = 0; i < atoms.size(); ++i) {
      std::vector<Atom> smaller;
      for (size_t j = 0; j < atoms.size(); ++j) {
        if (j != i) smaller.push_back(atoms[j]);
      }
      // q ≡ q−α iff q → q−α (the reverse inclusion hom always exists).
      if (AtomSetHomomorphismExists(atoms, smaller, cq.schema())) {
        atoms = std::move(smaller);
        changed = true;
        break;
      }
    }
  }
  return ConjunctiveQuery::Create(cq.schema(), std::move(atoms));
}

std::optional<Database> CanonicalRpqSupport(const RegularPathQuery& rpq,
                                            size_t min_len) {
  if (rpq.source() == rpq.target() && rpq.dfa().AcceptsEpsilon()) {
    // The query is ⊤: its unique minimal support is the empty database, and
    // no path support is canonical.
    return Database(rpq.schema());
  }
  auto word = rpq.dfa().ShortestWordOfLengthAtLeast(std::max<size_t>(min_len, 1));
  if (!word.has_value()) return std::nullopt;
  Database path(rpq.schema());
  Constant prev = rpq.source();
  for (size_t i = 0; i < word->size(); ++i) {
    Constant next =
        (i + 1 == word->size()) ? rpq.target() : Constant::Fresh("m");
    auto rel = rpq.schema()->FindRelation(rpq.dfa().symbol_names()[(*word)[i]]);
    SHAPLEY_CHECK(rel.has_value());
    path.Insert(Fact(*rel, {prev, next}));
    prev = next;
  }
  return path;
}

std::vector<Database> CanonicalMinimalSupports(const BooleanQuery& query) {
  RequireMonotone(query);

  if (const auto* cq = dynamic_cast<const ConjunctiveQuery*>(&query)) {
    return {CoreOfCq(*cq)->Freeze()};
  }
  if (const auto* ucq = dynamic_cast<const UnionQuery*>(&query)) {
    std::vector<Database> result;
    for (const CqPtr& disjunct : ucq->disjuncts()) {
      Database frozen = CoreOfCq(*disjunct)->Freeze();
      result.push_back(ShrinkToMinimalSupport(query, std::move(frozen)));
    }
    return FilterMinimal(std::move(result));
  }
  if (const auto* rpq = dynamic_cast<const RegularPathQuery*>(&query)) {
    auto support = CanonicalRpqSupport(*rpq, 0);
    if (!support.has_value()) return {};
    return {*support};
  }
  if (const auto* crpq =
          dynamic_cast<const ConjunctiveRegularPathQuery*>(&query)) {
    // Freeze variable endpoints, lay a shortest-word path per atom, shrink.
    Assignment frozen;
    for (Variable v : crpq->Variables()) {
      frozen.emplace(v, Constant::Fresh(v.name()));
    }
    Database support(crpq->schema());
    for (size_t i = 0; i < crpq->path_atoms().size(); ++i) {
      const PathAtom& pa = crpq->path_atoms()[i];
      Constant src = pa.source.IsConstant() ? pa.source.constant()
                                            : frozen.at(pa.source.variable());
      Constant dst = pa.target.IsConstant() ? pa.target.constant()
                                            : frozen.at(pa.target.variable());
      auto word = crpq->dfas()[i].ShortestWord();
      if (!word.has_value()) return {};  // Unsatisfiable atom.
      if (word->empty() && !(src == dst)) {
        // Try a nonempty word instead (endpoints differ).
        word = crpq->dfas()[i].ShortestWordOfLengthAtLeast(1);
        if (!word.has_value()) return {};
      }
      Constant prev = src;
      for (size_t k = 0; k < word->size(); ++k) {
        Constant next = (k + 1 == word->size()) ? dst : Constant::Fresh("m");
        auto rel =
            crpq->schema()->FindRelation(crpq->dfas()[i].symbol_names()[(*word)[k]]);
        SHAPLEY_CHECK(rel.has_value());
        support.Insert(Fact(*rel, {prev, next}));
        prev = next;
      }
    }
    if (!crpq->Evaluate(support)) return {};
    return {ShrinkToMinimalSupport(*crpq, std::move(support))};
  }
  if (const auto* ucrpq = dynamic_cast<const UnionCrpq*>(&query)) {
    std::vector<Database> result;
    for (const CrpqPtr& disjunct : ucrpq->disjuncts()) {
      for (Database s : CanonicalMinimalSupports(*disjunct)) {
        result.push_back(ShrinkToMinimalSupport(query, std::move(s)));
      }
    }
    return FilterMinimal(std::move(result));
  }
  if (const auto* conj = dynamic_cast<const ConjunctionQuery*>(&query)) {
    std::vector<Database> left = CanonicalMinimalSupports(*conj->left());
    std::vector<Database> right = CanonicalMinimalSupports(*conj->right());
    std::vector<Database> result;
    for (const Database& l : left) {
      for (const Database& r : right) {
        Database u = l.Union(r);
        if (query.Evaluate(u)) {
          result.push_back(ShrinkToMinimalSupport(query, std::move(u)));
        }
      }
    }
    return FilterMinimal(std::move(result));
  }
  throw std::invalid_argument(
      "CanonicalMinimalSupports: unsupported query type");
}

}  // namespace shapley
