#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/s2rdf.h"
#include "rdf/dictionary.h"
#include "rdf/table.h"
#include "sparql/results_io.h"
#include "tests/reference_results_io.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace s2rdf::sparql {
namespace {

struct Fixture {
  rdf::Dictionary dict;
  rdf::Table table{std::vector<std::string>{"x", "name", "age"}};

  Fixture() {
    rdf::TermId a = dict.Encode("<http://e/A>");
    rdf::TermId name = dict.Encode("\"Alice \\\"Al\\\"\"@en");
    rdf::TermId age =
        dict.Encode("\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
    rdf::TermId blank = dict.Encode("_:b0");
    table.AppendRow({a, name, age});
    table.AppendRow({blank, rdf::kNullTermId, age});
  }
};

TEST(ResultsIoTest, JsonFormat) {
  Fixture f;
  std::string json = ResultsToJson(f.table, f.dict);
  EXPECT_NE(json.find("\"vars\": [\"x\", \"name\", \"age\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"type\": \"uri\", \"value\": \"http://e/A\""),
            std::string::npos);
  EXPECT_NE(json.find("\"xml:lang\": \"en\""), std::string::npos);
  EXPECT_NE(json.find("\"datatype\": "
                      "\"http://www.w3.org/2001/XMLSchema#integer\""),
            std::string::npos);
  EXPECT_NE(json.find("\"type\": \"bnode\""), std::string::npos);
  // The escaped quote inside the literal survives JSON escaping.
  EXPECT_NE(json.find("Alice \\\"Al\\\""), std::string::npos);
  // Unbound binding omitted: the second row has no "name" key after
  // its bnode binding.
  size_t second_row = json.find("bnode");
  ASSERT_NE(second_row, std::string::npos);
  EXPECT_EQ(json.find("\"name\"", second_row), std::string::npos);
}

TEST(ResultsIoTest, XmlFormat) {
  Fixture f;
  std::string xml = ResultsToXml(f.table, f.dict);
  EXPECT_NE(xml.find("<variable name=\"x\"/>"), std::string::npos);
  EXPECT_NE(xml.find("<uri>http://e/A</uri>"), std::string::npos);
  EXPECT_NE(xml.find("<literal xml:lang=\"en\">"), std::string::npos);
  EXPECT_NE(xml.find("<bnode>b0</bnode>"), std::string::npos);
  EXPECT_NE(xml.find("datatype=\"http://www.w3.org/2001/"
                     "XMLSchema#integer\""),
            std::string::npos);
}

TEST(ResultsIoTest, CsvQuotesSpecialCharacters) {
  rdf::Dictionary dict;
  rdf::Table t({"v"});
  t.AppendRow({dict.Encode("\"a,b\"")});
  t.AppendRow({dict.Encode("\"say \\\"hi\\\"\"")});
  t.AppendRow({dict.Encode("<http://e/plain>")});
  std::string csv = ResultsToCsv(t, dict);
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(csv.find("http://e/plain"), std::string::npos);
}

TEST(ResultsIoTest, TsvUsesNTriplesSyntax) {
  Fixture f;
  std::string tsv = ResultsToTsv(f.table, f.dict);
  EXPECT_NE(tsv.find("?x\t?name\t?age"), std::string::npos);
  EXPECT_NE(tsv.find("<http://e/A>"), std::string::npos);
  EXPECT_NE(tsv.find("\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"),
            std::string::npos);
}

TEST(ResultsIoTest, AskFormats) {
  EXPECT_NE(AskToJson(true).find("\"boolean\": true"), std::string::npos);
  EXPECT_NE(AskToJson(false).find("\"boolean\": false"), std::string::npos);
  EXPECT_NE(AskToXml(true).find("<boolean>true</boolean>"),
            std::string::npos);
}

TEST(ResultsIoTest, EmptyTable) {
  rdf::Dictionary dict;
  rdf::Table t({"a"});
  EXPECT_NE(ResultsToJson(t, dict).find("\"bindings\": [\n  ]"),
            std::string::npos);
  EXPECT_NE(ResultsToXml(t, dict).find("<results>\n  </results>"),
            std::string::npos);
}

// --- Byte identity with the reference serializers --------------------------

// Where `got` first departs from `want`, with a little context. (Not
// EXPECT_EQ: gtest diffs multi-line strings line by line in quadratic
// memory, and these bodies run to megabytes.)
std::string FirstDifference(const std::string& got, const std::string& want) {
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  const size_t from = i < 40 ? 0 : i - 40;
  return "bodies of " + std::to_string(got.size()) + " and " +
         std::to_string(want.size()) + " bytes differ at byte " +
         std::to_string(i) + "\n got: " + got.substr(from, 80) +
         "\nwant: " + want.substr(from, 80);
}

// All four formats of `table` equal the reference serializers' bytes.
void ExpectSameBytes(const rdf::Table& table, const rdf::Dictionary& dict,
                     const std::string& what) {
  using Writer = std::string (*)(const rdf::Table&, const rdf::Dictionary&);
  const std::pair<Writer, Writer> writers[] = {
      {ResultsToJson, reference::ResultsToJson},
      {ResultsToXml, reference::ResultsToXml},
      {ResultsToCsv, reference::ResultsToCsv},
      {ResultsToTsv, reference::ResultsToTsv}};
  for (const auto& [write, write_reference] : writers) {
    const std::string got = write(table, dict);
    const std::string want = write_reference(table, dict);
    EXPECT_TRUE(got == want) << what << "\n" << FirstDifference(got, want);
  }
}

TEST(ResultsIoIdentityTest, AskMatchesReference) {
  for (bool result : {true, false}) {
    EXPECT_EQ(AskToJson(result), reference::AskToJson(result));
    EXPECT_EQ(AskToXml(result), reference::AskToXml(result));
  }
}

// Canonical strings covering every term shape, every escape the formats
// apply, and strings the term parser rejects (rendered by the fallback).
const std::vector<std::string>& EdgeTerms() {
  static const std::vector<std::string> terms = {
      // IRIs and blank nodes, with JSON, XML and CSV specials inside.
      "<http://e/A>", "<http://e/a&b<c>d\"e>", "<http://e/a,b>",
      "<http://e/back\\slash>", "<>", "_:b0", "_:", "_:x\"<&>",
      // Plain, language-tagged and typed literals.
      "\"plain\"", "\"\"", "\"chat\"@fr", "\"x\"@", "\"x\"@en-US<&>\"",
      "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>",
      "\"a\"^^<http://e/dt?a=1&b=<2>\">", "\"x\"^^<d>",
      // The N-Triples escapes \" \\ \n \r \t, and unknown ones kept as is.
      "\"say \\\"hi\\\"\"", "\"back\\\\slash\"", "\"line\\nbreak\"",
      "\"cr\\rlf\\n\"", "\"tab\\there\"", "\"\\q\\u00e9\"",
      "\"\\\"\"@en", "\"\\\\\"^^<http://e/t>",
      // Raw control characters below 0x20, DEL and UTF-8.
      "\"ctl\x01\x02\x1f\x7f\"", std::string("\"nul\0byte\"", 10),
      "\"\b\f\v\"",
      "<http://e/\x1b>", "\"caf\xc3\xa9\"",
      // XML specials and CSV quoting.
      "\"<a href=\\\"x\\\">&amp;</a>\"", "\"a,b\"", "\"a\\r\\nb\"",
      "\"\\\"quoted\\\"\"", "\",\"",
      // Strings the parser rejects.
      "", "<", "<http://e/open", "\"unterminated", "\"ends in escape\\\"",
      "\"x\"junk", "\"x\"^^<>", "\"x\"^^<open", "\"x\"^^http://e/t",
      "plain words, \"quoted\"", "_", "_x", "^^<x>", "@en"};
  return terms;
}

TEST(ResultsIoIdentityTest, EdgeTermsMatchReference) {
  rdf::Dictionary dict;
  std::vector<rdf::TermId> ids;
  for (const std::string& term : EdgeTerms()) ids.push_back(dict.Encode(term));
  // Column names that need JSON or XML escaping (CSV and TSV emit them
  // raw).
  rdf::Table table(std::vector<std::string>{"a\"b", "x<y>&z", "back\\slash",
                                            "line\nbreak", "t\tab", "c,d"});
  const size_t n = ids.size();
  for (size_t r = 0; r < 3 * n; ++r) {
    std::vector<rdf::TermId> row;
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      row.push_back(ids[(r * 7 + c * 3) % n]);
    }
    // Unbound cells in the first, a middle and the last column, and a
    // row with nothing bound.
    if (r % 5 == 1) row.front() = rdf::kNullTermId;
    if (r % 5 == 2) row[2] = rdf::kNullTermId;
    if (r % 5 == 3) row.back() = rdf::kNullTermId;
    if (r % 11 == 4) {
      for (rdf::TermId& id : row) id = rdf::kNullTermId;
    }
    table.AppendRow(row);
  }
  ExpectSameBytes(table, dict, "edge terms");
  // One column, so every row has a single cell, bound or not.
  rdf::Table narrow(std::vector<std::string>{"only"});
  for (size_t r = 0; r < n; ++r) {
    narrow.AppendRow({r % 4 == 3 ? rdf::kNullTermId : ids[r]});
  }
  ExpectSameBytes(narrow, dict, "one column");
}

TEST(ResultsIoIdentityTest, EmptyShapesMatchReference) {
  rdf::Dictionary dict;
  const rdf::TermId a = dict.Encode("<http://e/A>");
  ExpectSameBytes(rdf::Table(std::vector<std::string>{"a", "b"}), dict,
                  "zero rows");
  ExpectSameBytes(rdf::Table(), dict, "zero columns, zero rows");
  rdf::Table no_columns;
  for (int r = 0; r < 3; ++r) no_columns.AppendRow({});
  ExpectSameBytes(no_columns, dict, "zero columns, three rows");
  rdf::Table unbound(std::vector<std::string>{"a", "b"});
  unbound.AppendRow({rdf::kNullTermId, rdf::kNullTermId});
  ExpectSameBytes(unbound, dict, "one row, nothing bound");
  rdf::Table one(std::vector<std::string>{"a"});
  one.AppendRow({a});
  ExpectSameBytes(one, dict, "one cell");
}

// Random short strings over the characters the term syntax and the
// formats treat specially: the cut into kind, value, language and
// datatype must agree with the parser on every one of them.
TEST(ResultsIoIdentityTest, RandomCanonicalStringsMatchReference) {
  static constexpr char kAlphabet[] = "<>\"\\_:@^a,&\n\r\t\x01";
  SplitMix64 rng(19);
  rdf::Dictionary dict;
  rdf::Table table(std::vector<std::string>{"s", "o"});
  for (int i = 0; i < 4000; ++i) {
    std::string term;
    const size_t length = rng.Uniform(9);
    for (size_t k = 0; k < length; ++k) {
      term += kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)];
    }
    const rdf::TermId id = dict.Encode(term);
    table.AppendRow(
        {id, static_cast<rdf::TermId>(rng.Uniform(dict.size()))});
  }
  ExpectSameBytes(table, dict, "random strings");
}

// Every answer the repository benchmark formats, at WatDiv SF 1: each
// Basic template at three seeds, the Selectivity queries and analytic
// queries that mint typed aggregate literals.
TEST(ResultsIoIdentityTest, WatDivAnswersMatchReference) {
  watdiv::GeneratorOptions gen;
  gen.scale_factor = 1.0;
  auto db = core::S2Rdf::Create(watdiv::Generate(gen), core::S2RdfOptions());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<std::string> queries;
  for (uint64_t seed : {1, 2, 3}) {
    SplitMix64 rng(seed);
    for (const auto& tmpl : watdiv::BasicTestingQueries()) {
      queries.push_back(watdiv::InstantiateQuery(tmpl, 1.0, &rng));
    }
  }
  for (const auto& tmpl : watdiv::SelectivityTestingQueries()) {
    // 114 K - 863 K rows each; the benchmark skips them too.
    if (tmpl.name == "ST-3-1" || tmpl.name == "ST-5-2" ||
        tmpl.name == "ST-7-1") {
      continue;
    }
    SplitMix64 unused(0);
    queries.push_back(watdiv::InstantiateQuery(tmpl, 1.0, &unused));
  }
  // The analytic queries of the benchmark's query set.
  const std::string st31 = "?v0 wsdbm:follows ?v1 . ?v1 wsdbm:friendOf ?v2 . ";
  const std::string st52 = "?v0 wsdbm:friendOf ?v1 . ?v0 wsdbm:follows ?v2 . ";
  const std::string st71 =
      "?v0 wsdbm:friendOf ?v1 . ?v1 wsdbm:follows ?v2 . "
      "?v2 foaf:homepage ?v3 . ";
  const std::string il3 =
      "?v0 gr:offers ?v1 . ?v1 gr:includes ?v2 . ?v2 rev:hasReview ?v3 . "
      "?v3 rev:reviewer ?v4 . ?v4 wsdbm:friendOf ?v5 . ";
  for (const std::string& body : std::vector<std::string>{
           "SELECT (COUNT(*) AS ?n) WHERE { ?v0 wsdbm:friendOf ?v1 . "
           "?v1 wsdbm:friendOf ?v2 . }",
           "SELECT (COUNT(DISTINCT ?v5) AS ?n) WHERE { " + il3 + "}",
           "SELECT ?v4 (COUNT(*) AS ?n) WHERE { " + il3 +
               "} GROUP BY ?v4 ORDER BY DESC(?n) ?v4 LIMIT 10",
           "SELECT (COUNT(*) AS ?n) WHERE { " + il3 + "FILTER (?v0 != ?v5) }",
           "SELECT ?v0 ?v5 WHERE { " + il3 + "} ORDER BY ?v5 ?v0 LIMIT 25",
           "SELECT (COUNT(*) AS ?n) WHERE { " + st31 + "}",
           "SELECT (COUNT(DISTINCT ?v2) AS ?n) WHERE { " + st31 + "}",
           "SELECT DISTINCT ?v2 WHERE { " + st31 + "} ORDER BY ?v2 LIMIT 20",
           "SELECT ?v0 ?v2 WHERE { " + st52 + "} ORDER BY ?v2 ?v0 LIMIT 25",
           "SELECT ?v0 ?v3 WHERE { " + st71 + "} ORDER BY ?v3 ?v0 LIMIT 25",
           "SELECT ?v1 (COUNT(?v2) AS ?n) WHERE { ?v0 wsdbm:friendOf ?v1 . "
           "OPTIONAL { ?v1 wsdbm:follows ?v2 . } } "
           "GROUP BY ?v1 ORDER BY DESC(?n) ?v1 LIMIT 10",
           "SELECT (COUNT(*) AS ?n) WHERE { { " + st52 +
               "} UNION { ?v0 wsdbm:follows ?v1 . ?v0 wsdbm:likes ?v2 . } }",
           "SELECT ?v0 (COUNT(*) AS ?n) WHERE { ?v0 wsdbm:friendOf ?v1 . "
           "?v1 wsdbm:friendOf ?v2 . } GROUP BY ?v0 ORDER BY DESC(?n) ?v0 "
           "LIMIT 10",
       }) {
    queries.push_back(watdiv::PrefixHeader() + body);
  }
  const rdf::Dictionary& dict = (*db)->graph().dictionary();
  size_t rows = 0;
  for (const std::string& query : queries) {
    auto result = (*db)->Execute({.query = query});
    ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n" << query;
    rows += result->table.NumRows();
    ExpectSameBytes(result->table, dict, query);
  }
  EXPECT_GT(rows, 100000u);
}

}  // namespace
}  // namespace s2rdf::sparql
