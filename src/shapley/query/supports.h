#ifndef SHAPLEY_QUERY_SUPPORTS_H_
#define SHAPLEY_QUERY_SUPPORTS_H_

#include <optional>
#include <vector>

#include "shapley/query/boolean_query.h"
#include "shapley/query/conjunctive_query.h"
#include "shapley/query/path_query.h"
#include "shapley/query/union_query.h"

namespace shapley {

/// Minimal-support machinery (Section 2: "we call D a minimal support for q
/// if D |= q and D' |̸= q for every D' ⊊ D").
///
/// All functions here require the query to be monotone ((C-)hom-closed);
/// they throw std::invalid_argument otherwise.

/// Greedy shrink of a satisfying database to one minimal support. Requires
/// db |= q. For monotone queries, single-fact removals suffice to certify
/// minimality.
Database ShrinkToMinimalSupport(const BooleanQuery& query, Database db);

/// True iff db |= q and no single-fact removal still satisfies q.
bool IsMinimalSupport(const BooleanQuery& query, const Database& db);

/// All minimal supports of `query` inside `db`.
///
/// Complete for ConjunctiveQuery / UnionQuery (homomorphism images filtered
/// to inclusion-minimal ones), RegularPathQuery (non-revisiting product
/// walks), ConjunctiveRegularPathQuery and ConjunctionQuery (pairwise
/// unions, filtered); other query types fall back to subset enumeration,
/// which throws std::invalid_argument if db has more than 24 facts.
/// Throws if more than `cap` supports would be collected.
std::vector<Database> EnumerateMinimalSupports(const BooleanQuery& query,
                                               const Database& db,
                                               size_t cap = 200000);

/// Supports of `query` in `db` among which are all its minimal ones, for
/// the queries whose supports are homomorphism images: ConjunctiveQuery,
/// UnionQuery, and ConjunctionQuery over those (one image per operand,
/// united). The images are neither deduplicated nor filtered for
/// minimality, so the cost is the homomorphism search (which Evaluate runs
/// too) plus the images themselves, and `cap` bounds the whole enumeration
/// — unlike the path classes, whose walk search can run exponentially long
/// while finding few supports, and the 2^|db| subset fallback. Throws
/// std::invalid_argument for any other query class, a non-monotone query,
/// or more than `cap` images.
std::vector<Database> EnumerateHomImages(const BooleanQuery& query,
                                         const Database& db,
                                         size_t cap = 200000);

/// The core of a positive CQ: a minimal equivalent subquery, computed by
/// repeatedly dropping atoms whose removal preserves hom-equivalence.
/// Duplicated atoms are removed first. Throws for CQs with negation.
CqPtr CoreOfCq(const ConjunctiveQuery& cq);

/// Canonical minimal supports of the query "in the abstract":
///  * CQ        — the frozen core (always exactly one);
///  * UCQ       — one per disjunct (frozen disjunct cores, shrunk w.r.t. the
///                whole union), inclusion-filtered;
///  * RPQ       — a fresh simple path realizing a shortest word (see
///                `CanonicalRpqSupport` for the length-constrained variant);
///  * CRPQ      — per-atom shortest-word paths with frozen endpoints, shrunk;
///  * Conjunction — unions of the operands' canonical supports, shrunk.
/// Returns an empty vector when the query is trivially true (⊤) and a
/// support exists with no facts.
std::vector<Database> CanonicalMinimalSupports(const BooleanQuery& query);

/// A minimal support of an RPQ realizing a shortest word of length >= min_len
/// (Lemma B.1's construction): a fresh simple path. Returns nullopt when the
/// language has no such word. Requires: not (epsilon-accepting with
/// source == target) — that query is ⊤ and has the empty support.
std::optional<Database> CanonicalRpqSupport(const RegularPathQuery& rpq,
                                            size_t min_len);

}  // namespace shapley

#endif  // SHAPLEY_QUERY_SUPPORTS_H_
