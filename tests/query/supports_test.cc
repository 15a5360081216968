#include "shapley/query/supports.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "shapley/data/parser.h"
#include "shapley/query/conjunction_query.h"
#include "shapley/query/query_parser.h"

namespace shapley {
namespace {

class SupportsTest : public ::testing::Test {
 protected:
  SupportsTest() : schema_(Schema::Create()) {}
  std::shared_ptr<Schema> schema_;
};

TEST_F(SupportsTest, ShrinkFindsMinimalSupport) {
  CqPtr q = ParseCq(schema_, "R(x,y), S(y)");
  Database db = ParseDatabase(schema_, "R(a,b) S(b) R(c,d) S(d) T(e)");
  Database minimal = ShrinkToMinimalSupport(*q, db);
  EXPECT_EQ(minimal.size(), 2u);
  EXPECT_TRUE(IsMinimalSupport(*q, minimal));
  EXPECT_TRUE(q->Evaluate(minimal));
}

TEST_F(SupportsTest, ShrinkThrowsOnNonMonotone) {
  CqPtr q = ParseCq(schema_, "A(x), !B(x)");
  EXPECT_THROW(ShrinkToMinimalSupport(*q, ParseDatabase(schema_, "A(a)")),
               std::invalid_argument);
}

TEST_F(SupportsTest, EnumerateMinimalSupportsCq) {
  CqPtr q = ParseCq(schema_, "R(x,y), S(y)");
  Database db = ParseDatabase(schema_, "R(a,b) S(b) R(c,b) S(d)");
  auto supports = EnumerateMinimalSupports(*q, db);
  // {R(a,b),S(b)} and {R(c,b),S(b)}.
  EXPECT_EQ(supports.size(), 2u);
  for (const Database& s : supports) {
    EXPECT_TRUE(IsMinimalSupport(*q, s));
    EXPECT_TRUE(s.IsSubsetOf(db));
  }
}

TEST_F(SupportsTest, EnumerateHandlesRedundantQueries) {
  // Non-core query: R(x,y) ∧ R(u,v); its minimal supports are single facts.
  CqPtr q = ParseCq(schema_, "R(x,y), R(u,v)");
  Database db = ParseDatabase(schema_, "R(a,b) R(c,d)");
  auto supports = EnumerateMinimalSupports(*q, db);
  EXPECT_EQ(supports.size(), 2u);
  for (const Database& s : supports) EXPECT_EQ(s.size(), 1u);
}

TEST_F(SupportsTest, EnumerateUcqTakesMinimalAcrossDisjuncts) {
  UcqPtr q = ParseUcq(schema_, "R(x,y), S(y) | S(x)");
  Database db = ParseDatabase(schema_, "R(a,b) S(b)");
  auto supports = EnumerateMinimalSupports(*q, db);
  // S(b) alone satisfies the second disjunct; the join support is subsumed.
  ASSERT_EQ(supports.size(), 1u);
  EXPECT_EQ(supports[0].size(), 1u);
}

TEST_F(SupportsTest, EnumerateRpqPathSupports) {
  RpqPtr q = RegularPathQuery::Create(schema_, Regex::Parse("A A"),
                                      Constant::Named("s"),
                                      Constant::Named("t"));
  Database db =
      ParseDatabase(schema_, "A(s,m1) A(m1,t) A(s,m2) A(m2,t) A(s,t)");
  auto supports = EnumerateMinimalSupports(*q, db);
  // Two two-edge paths; A(s,t) alone is not a support of AA... unless the
  // walk uses it twice — s→t then t→? no A(t,.) — so exactly 2.
  EXPECT_EQ(supports.size(), 2u);
  for (const Database& s : supports) {
    EXPECT_EQ(s.size(), 2u);
    EXPECT_TRUE(IsMinimalSupport(*q, s));
  }
}

TEST_F(SupportsTest, EnumerateRpqSelfLoopReuse) {
  // A self-loop supports AA with a single edge.
  RpqPtr q = RegularPathQuery::Create(schema_, Regex::Parse("A A"),
                                      Constant::Named("s"),
                                      Constant::Named("s"));
  Database db = ParseDatabase(schema_, "A(s,s) A(s,u) A(u,s)");
  auto supports = EnumerateMinimalSupports(*q, db);
  // {A(s,s)} (the loop walked twice) and {A(s,u), A(u,s)}.
  ASSERT_EQ(supports.size(), 2u);
  EXPECT_EQ(supports[0].size(), 1u);
  EXPECT_EQ(supports[1].size(), 2u);
  for (const Database& s : supports) EXPECT_TRUE(IsMinimalSupport(*q, s));
}

TEST_F(SupportsTest, EnumerateConjunction) {
  QueryPtr q = ConjunctionQuery::Create(ParseCq(schema_, "P(x)"),
                                        ParseCq(schema_, "Q(y)"));
  Database db = ParseDatabase(schema_, "P(a) P(b) Q(c)");
  auto supports = EnumerateMinimalSupports(*q, db);
  EXPECT_EQ(supports.size(), 2u);
  for (const Database& s : supports) EXPECT_EQ(s.size(), 2u);
}

// A monotone query of a class the enumerator does not know structurally
// (here: "the database has at least two facts").
class AtLeastTwoFacts : public BooleanQuery {
 public:
  explicit AtLeastTwoFacts(std::shared_ptr<Schema> schema)
      : schema_(std::move(schema)) {}
  bool Evaluate(const Database& db) const override { return db.size() >= 2; }
  std::set<Constant> QueryConstants() const override { return {}; }
  std::string ToString() const override { return "|D| >= 2"; }
  const std::shared_ptr<Schema>& schema() const override { return schema_; }

 private:
  std::shared_ptr<Schema> schema_;
};

TEST_F(SupportsTest, HomImagesCoverCqsAndUcqsOnly) {
  Database db = ParseDatabase(schema_, "R(a) S(a,b) R(c) P(a) Q(b) A(s,t)");
  // CQs, UCQs and conjunctions of them: every image is a support, and
  // every minimal support is an image.
  const std::vector<QueryPtr> queries = {
      ParseCq(schema_, "R(x), S(x,y)"), ParseUcq(schema_, "R(x) | S(x,y)"),
      ConjunctionQuery::Create(ParseCq(schema_, "P(x)"),
                               ParseCq(schema_, "Q(y)"))};
  for (const QueryPtr& q : queries) {
    const std::vector<Database> images = EnumerateHomImages(*q, db);
    for (const Database& image : images) EXPECT_TRUE(q->Evaluate(image));
    for (const Database& minimal : EnumerateMinimalSupports(*q, db)) {
      EXPECT_NE(std::find(images.begin(), images.end(), minimal), images.end())
          << q->ToString() << " misses " << minimal.ToString();
    }
  }
  // Images are not filtered: S(a,b) ∪ R(a) is a support, not a minimal one.
  EXPECT_EQ(EnumerateHomImages(*ParseUcq(schema_, "R(x) | R(x), S(x,y)"), db)
                .size(),
            3u);
  // Path queries, and conjunctions reaching one, are refused rather than
  // walked.
  QueryPtr rpq = RegularPathQuery::Create(schema_, Regex::Parse("A"),
                                          Constant::Named("s"),
                                          Constant::Named("t"));
  EXPECT_THROW(EnumerateHomImages(*rpq, db), std::invalid_argument);
  QueryPtr with_rpq = ConjunctionQuery::Create(ParseCq(schema_, "P(x)"), rpq);
  EXPECT_THROW(EnumerateHomImages(*with_rpq, db), std::invalid_argument);
  // So are classes only the subset enumeration handles.
  QueryPtr other = std::make_shared<AtLeastTwoFacts>(schema_);
  EXPECT_THROW(EnumerateHomImages(*other, db), std::invalid_argument);
  Database three = ParseDatabase(schema_, "P(a) P(b) P(c)");
  EXPECT_EQ(EnumerateMinimalSupports(*other, three).size(), 3u);
  // And the cap bounds the collected images.
  EXPECT_THROW(EnumerateHomImages(*ParseCq(schema_, "R(x)"), db, 1),
               std::invalid_argument);
}

TEST_F(SupportsTest, CoreRemovesRedundantAtoms) {
  CqPtr q = ParseCq(schema_, "R(x,y), R(u,v)");
  CqPtr core = CoreOfCq(*q);
  EXPECT_EQ(core->atoms().size(), 1u);

  // Non-redundant: R(x,y), S(y,x) stays intact.
  CqPtr q2 = ParseCq(schema_, "R(x,y), S(y,x)");
  EXPECT_EQ(CoreOfCq(*q2)->atoms().size(), 2u);

  // Triangle-with-tail folds: R(x,y), R(y,z) is a core (no fold possible).
  CqPtr q3 = ParseCq(schema_, "R(x,y), R(y,z)");
  EXPECT_EQ(CoreOfCq(*q3)->atoms().size(), 2u);

  // R(x,y), R(x,x): hom mapping y -> x collapses it to R(x,x).
  CqPtr q4 = ParseCq(schema_, "R(x,y), R(x,x)");
  EXPECT_EQ(CoreOfCq(*q4)->atoms().size(), 1u);
}

TEST_F(SupportsTest, CoreRespectsConstants) {
  // R(x,a) and R(x,b) cannot collapse (constants fixed).
  CqPtr q = ParseCq(schema_, "R(x,a), R(y,b)");
  EXPECT_EQ(CoreOfCq(*q)->atoms().size(), 2u);
}

TEST_F(SupportsTest, CanonicalSupportCqIsMinimal) {
  CqPtr q = ParseCq(schema_, "R(x,y), R(u,v), S(y)");
  auto supports = CanonicalMinimalSupports(*q);
  ASSERT_EQ(supports.size(), 1u);
  EXPECT_TRUE(IsMinimalSupport(*q, supports[0]));
  EXPECT_EQ(supports[0].size(), 2u);  // Core is R(x,y), S(y).
}

TEST_F(SupportsTest, CanonicalSupportsUcqOnePerDisjunct) {
  UcqPtr q = ParseUcq(schema_, "R(x,x) | S(x,y)");
  auto supports = CanonicalMinimalSupports(*q);
  EXPECT_EQ(supports.size(), 2u);
  for (const Database& s : supports) {
    EXPECT_TRUE(IsMinimalSupport(*q, s));
  }
}

TEST_F(SupportsTest, CanonicalSupportRpqShortestPath) {
  RpqPtr q = RegularPathQuery::Create(schema_, Regex::Parse("A B | A A A"),
                                      Constant::Named("s"),
                                      Constant::Named("t"));
  auto supports = CanonicalMinimalSupports(*q);
  ASSERT_EQ(supports.size(), 1u);
  EXPECT_EQ(supports[0].size(), 2u);
  EXPECT_TRUE(q->Evaluate(supports[0]));
  EXPECT_TRUE(IsMinimalSupport(*q, supports[0]));
}

TEST_F(SupportsTest, CanonicalRpqSupportWithLengthConstraint) {
  RpqPtr q = RegularPathQuery::Create(schema_, Regex::Parse("A | B B B"),
                                      Constant::Named("s"),
                                      Constant::Named("t"));
  auto support = CanonicalRpqSupport(*q, 2);
  ASSERT_TRUE(support.has_value());
  EXPECT_EQ(support->size(), 3u);  // Forced to take the BBB branch.
  EXPECT_TRUE(IsMinimalSupport(*q, *support));
  EXPECT_FALSE(CanonicalRpqSupport(*q, 4).has_value());
}

TEST_F(SupportsTest, CanonicalSupportCrpq) {
  std::vector<PathAtom> atoms;
  atoms.push_back({Regex::Parse("A B"), Term(Variable::Named("x")),
                   Term(Constant::Named("a"))});
  CrpqPtr q = ConjunctiveRegularPathQuery::Create(schema_, std::move(atoms));
  auto supports = CanonicalMinimalSupports(*q);
  ASSERT_EQ(supports.size(), 1u);
  EXPECT_EQ(supports[0].size(), 2u);
  EXPECT_TRUE(IsMinimalSupport(*q, supports[0]));
}

TEST_F(SupportsTest, MinimalSupportRejection) {
  CqPtr q = ParseCq(schema_, "R(x,y)");
  EXPECT_FALSE(IsMinimalSupport(*q, ParseDatabase(schema_, "R(a,b) R(c,d)")));
  EXPECT_FALSE(IsMinimalSupport(*q, ParseDatabase(schema_, "S(a)")));
  EXPECT_TRUE(IsMinimalSupport(*q, ParseDatabase(schema_, "R(a,b)")));
}

}  // namespace
}  // namespace shapley
