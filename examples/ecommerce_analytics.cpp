// E-commerce analytics over a WatDiv-style dataset: the workload the
// paper's introduction motivates (retailers, offers, products, reviews,
// purchases). Demonstrates the public API on realistic queries using
// FILTER, OPTIONAL, DISTINCT, ORDER BY and LIMIT, and compares ExtVP
// against VP on each.
//
//   ./ecommerce_analytics [scale_factor]   (default 0.5)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/s2rdf.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace {

struct NamedQuery {
  const char* title;
  std::string text;
};

std::vector<NamedQuery> AnalyticsQueries() {
  const std::string& prefixes = s2rdf::watdiv::PrefixHeader();
  return {
      {"Retailer 0's offers above 500 with their products",
       prefixes + R"(
SELECT ?offer ?product ?price WHERE {
  wsdbm:Retailer0 gr:offers ?offer .
  ?offer gr:includes ?product .
  ?offer gr:price ?price .
  FILTER (?price > 500)
}
ORDER BY DESC(?price)
LIMIT 10)"},
      {"Products with reviews, optionally with the review rating",
       prefixes + R"(
SELECT ?product ?review ?rating WHERE {
  ?product rev:hasReview ?review .
  OPTIONAL { ?review rev:rating ?rating . }
}
LIMIT 15)"},
      {"Countries of users who bought a product that also has a review",
       prefixes + R"(
SELECT DISTINCT ?country WHERE {
  ?user wsdbm:makesPurchase ?purchase .
  ?purchase wsdbm:purchaseFor ?product .
  ?product rev:hasReview ?review .
  ?user sorg:nationality ?country .
})"},
      {"Friends-of-friends who like a reviewed product (social x commerce)",
       prefixes + R"(
SELECT ?user ?fof ?product WHERE {
  ?user wsdbm:friendOf ?friend .
  ?friend wsdbm:friendOf ?fof .
  ?fof wsdbm:likes ?product .
  ?product rev:hasReview ?review .
}
LIMIT 20)"},
      {"Offer eligibility per country, retailers joined in (UNION demo)",
       prefixes + R"(
SELECT ?offer ?place WHERE {
  { ?offer sorg:eligibleRegion ?place . }
  UNION
  { ?offer gr:validFrom ?place . }
}
LIMIT 10)"},
      {"Top product categories by review count (GROUP BY / COUNT)",
       prefixes + R"(
SELECT ?category (COUNT(*) AS ?reviews) WHERE {
  ?product rdf:type ?category .
  ?product rev:hasReview ?review .
}
GROUP BY ?category
ORDER BY DESC(?reviews)
LIMIT 5)"},
      {"Average and peak offer price per retailer (multi-aggregate)",
       prefixes + R"(
SELECT ?retailer (COUNT(*) AS ?offers) (AVG(?price) AS ?avg)
       (MAX(?price) AS ?max) WHERE {
  ?retailer gr:offers ?offer .
  ?offer gr:price ?price .
}
GROUP BY ?retailer
ORDER BY DESC(?offers)
LIMIT 5)"},
      {"Users who like more than their followers do (subquery demo)",
       prefixes + R"(
SELECT ?user ?liked WHERE {
  ?user wsdbm:follows ?friend .
  { SELECT ?user (COUNT(?p) AS ?liked) WHERE {
      ?user wsdbm:likes ?p .
    } GROUP BY ?user }
}
ORDER BY DESC(?liked)
LIMIT 5)"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  double scale_factor = argc > 1 ? std::atof(argv[1]) : 0.5;
  std::printf("generating WatDiv-like dataset, scale factor %.2f...\n",
              scale_factor);
  s2rdf::watdiv::GeneratorOptions gen;
  gen.scale_factor = scale_factor;
  s2rdf::rdf::Graph graph = s2rdf::watdiv::Generate(gen);
  std::printf("%zu triples\n", graph.NumTriples());

  s2rdf::core::S2RdfOptions options;
  options.extvp.sf_threshold = 0.25;  // The paper's recommended threshold.
  auto db = s2rdf::core::S2Rdf::Create(std::move(graph), options);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "built layouts in %.2fs (VP) + %.2fs (ExtVP, SF threshold 0.25, "
      "%llu tables)\n",
      (*db)->load_stats().vp_seconds, (*db)->load_stats().extvp_seconds,
      static_cast<unsigned long long>(
          (*db)->load_stats().extvp_stats.tables_materialized));

  for (const NamedQuery& query : AnalyticsQueries()) {
    std::printf("\n=== %s ===\n", query.title);
    auto extvp = (*db)->Execute(
        {.query = query.text,
         .options = {.layout = s2rdf::core::Layout::kExtVp}});
    if (!extvp.ok()) {
      std::fprintf(stderr, "  failed: %s\n",
                   extvp.status().ToString().c_str());
      continue;
    }
    auto vp = (*db)->Execute(
        {.query = query.text, .options = {.layout = s2rdf::core::Layout::kVp}});
    std::printf("  ExtVP: %zu rows in %.2f ms (input %llu tuples)",
                extvp->table.NumRows(), extvp->millis,
                static_cast<unsigned long long>(
                    extvp->metrics.input_tuples));
    if (vp.ok()) {
      std::printf("; VP: %.2f ms (input %llu tuples)", vp->millis,
                  static_cast<unsigned long long>(vp->metrics.input_tuples));
    }
    std::printf("\n");
    auto rows = (*db)->DecodeRows(extvp->table);
    size_t shown = std::min<size_t>(rows.size(), 5);
    for (size_t i = 0; i < shown; ++i) {
      std::printf("   ");
      for (const std::string& cell : rows[i]) {
        std::printf(" %s", cell.empty() ? "(unbound)" : cell.c_str());
      }
      std::printf("\n");
    }
    if (rows.size() > shown) {
      std::printf("    ... (%zu more rows)\n", rows.size() - shown);
    }
  }
  return 0;
}
