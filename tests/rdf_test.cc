#include <gtest/gtest.h>

#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"

namespace s2rdf::rdf {
namespace {

TEST(TermTest, IriRoundtrip) {
  Term t = Term::Iri("http://example.org/A");
  EXPECT_TRUE(t.is_iri());
  EXPECT_EQ(t.ToNTriples(), "<http://example.org/A>");
  auto parsed = Term::Parse(t.ToNTriples());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, t);
}

TEST(TermTest, PlainLiteralRoundtrip) {
  Term t = Term::Literal("hello world");
  EXPECT_EQ(t.ToNTriples(), "\"hello world\"");
  auto parsed = Term::Parse(t.ToNTriples());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, t);
}

TEST(TermTest, TypedLiteralRoundtrip) {
  Term t = Term::Literal("42", "http://www.w3.org/2001/XMLSchema#integer");
  EXPECT_EQ(t.ToNTriples(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  auto parsed = Term::Parse(t.ToNTriples());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->datatype(), "http://www.w3.org/2001/XMLSchema#integer");
}

TEST(TermTest, LanguageLiteralRoundtrip) {
  Term t = Term::Literal("bonjour", "", "fr");
  EXPECT_EQ(t.ToNTriples(), "\"bonjour\"@fr");
  auto parsed = Term::Parse(t.ToNTriples());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->language(), "fr");
}

TEST(TermTest, BlankNodeRoundtrip) {
  Term t = Term::Blank("b0");
  EXPECT_EQ(t.ToNTriples(), "_:b0");
  auto parsed = Term::Parse("_:b0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->is_blank());
}

TEST(TermTest, EscapingRoundtrip) {
  Term t = Term::Literal("line1\nline2 \"quoted\" \\slash\t");
  auto parsed = Term::Parse(t.ToNTriples());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->value(), t.value());
}

TEST(TermTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Term::Parse("").ok());
  EXPECT_FALSE(Term::Parse("<unterminated").ok());
  EXPECT_FALSE(Term::Parse("\"unterminated").ok());
  EXPECT_FALSE(Term::Parse("plainword").ok());
}

TEST(DictionaryTest, EncodeAssignsDenseIds) {
  Dictionary dict;
  EXPECT_EQ(dict.Encode("<a>"), 0u);
  EXPECT_EQ(dict.Encode("<b>"), 1u);
  EXPECT_EQ(dict.Encode("<a>"), 0u);  // Idempotent.
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Decode(1), "<b>");
}

TEST(DictionaryTest, FindDoesNotInsert) {
  Dictionary dict;
  dict.Encode("<a>");
  EXPECT_FALSE(dict.Find("<b>").has_value());
  EXPECT_EQ(dict.size(), 1u);
  EXPECT_EQ(dict.Find("<a>").value(), 0u);
}

TEST(DictionaryTest, SerializeRoundtrip) {
  Dictionary dict;
  for (int i = 0; i < 100; ++i) {
    dict.Encode("<http://x/" + std::to_string(i) + ">");
  }
  Dictionary restored;
  ASSERT_TRUE(restored.Append(dict.Serialize()).ok());
  EXPECT_EQ(restored.size(), 100u);
  EXPECT_EQ(restored.Decode(42), "<http://x/42>");
  EXPECT_EQ(restored.Find("<http://x/99>").value(), 99u);
}

TEST(DictionaryTest, DeserializeRejectsTruncated) {
  Dictionary dict;
  dict.Encode("<a>");
  std::string blob = dict.Serialize();
  blob.resize(blob.size() - 1);
  Dictionary restored;
  EXPECT_FALSE(restored.Append(blob).ok());
}

TEST(DictionaryTest, SerializedRangesAppendInIdOrder) {
  Dictionary dict;
  for (int i = 0; i < 10; ++i) dict.Encode("<t" + std::to_string(i) + ">");
  // Two commits' blobs: ids [0, 6), then the terms minted after.
  const std::string first = dict.Serialize(0, 6);
  const std::string rest = dict.Serialize(6);
  Dictionary restored;
  ASSERT_TRUE(restored.Append(first).ok());
  EXPECT_EQ(restored.size(), 6u);
  ASSERT_TRUE(restored.Append(rest).ok());
  EXPECT_EQ(restored.size(), 10u);
  EXPECT_EQ(restored.Find("<t7>").value(), 7u);
  // Appending a blob twice would hand its terms a second id.
  Status again = restored.Append(rest);
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(again.message().find("dictionary"), std::string::npos);
  // Nothing minted since id 10: an empty range.
  Dictionary empty;
  ASSERT_TRUE(empty.Append(dict.Serialize(10)).ok());
  EXPECT_EQ(empty.size(), 0u);
}

TEST(GraphTest, AddAndDistinctPredicates) {
  Graph g;
  g.AddIris("A", "follows", "B");
  g.AddIris("B", "follows", "C");
  g.AddIris("A", "likes", "I1");
  EXPECT_EQ(g.NumTriples(), 3u);
  EXPECT_EQ(g.DistinctPredicates().size(), 2u);
}

TEST(NTriplesTest, ParseBasic) {
  Graph g;
  std::string data =
      "<http://x/A> <http://x/p> <http://x/B> .\n"
      "# a comment\n"
      "\n"
      "<http://x/A> <http://x/q> \"42\"^^<http://www.w3.org/2001/"
      "XMLSchema#integer> .\n"
      "_:b <http://x/p> \"hi there\"@en .\n";
  ASSERT_TRUE(ParseNTriples(data, &g).ok());
  EXPECT_EQ(g.NumTriples(), 3u);
}

TEST(NTriplesTest, WriteParseRoundtrip) {
  Graph g;
  g.AddIris("A", "p", "B");
  g.Add(Term::Iri("A"), Term::Iri("p"), Term::Literal("x \"y\"\nz"));
  std::string text = WriteNTriples(g);
  Graph g2;
  ASSERT_TRUE(ParseNTriples(text, &g2).ok());
  EXPECT_EQ(g2.NumTriples(), 2u);
  EXPECT_EQ(WriteNTriples(g2), text);
}

TEST(NTriplesTest, ErrorsCarryLineNumbers) {
  Graph g;
  Status s = ParseNTriples("<a> <b> <c> .\nbroken line\n", &g);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST(NTriplesTest, RejectsLiteralPredicate) {
  Graph g;
  EXPECT_FALSE(ParseNTriples("<a> \"p\" <c> .\n", &g).ok());
}

TEST(NTriplesTest, RejectsMissingDot) {
  Graph g;
  EXPECT_FALSE(ParseNTriples("<a> <b> <c>\n", &g).ok());
}

}  // namespace
}  // namespace s2rdf::rdf
