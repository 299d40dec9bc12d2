#include "dataset.h"

#include <algorithm>
#include <set>
#include <string_view>

#include "common/random.h"
#include "rdf/ntriples.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace perfbench {

std::string WatDivNTriples(double scale_factor) {
  s2rdf::watdiv::GeneratorOptions options;
  options.scale_factor = scale_factor;
  return s2rdf::rdf::WriteNTriples(s2rdf::watdiv::Generate(options));
}

HoldoutSplit SplitForIngest(const std::string& ntriples, uint64_t seed,
                            int holdout_batches, double batch_share) {
  std::vector<std::string_view> lines;
  for (size_t pos = 0; pos < ntriples.size();) {
    size_t end = ntriples.find('\n', pos);
    if (end == std::string::npos) end = ntriples.size();
    if (end > pos) lines.push_back(std::string_view(ntriples).substr(pos, end - pos));
    pos = end + 1;
  }
  // Seeded Fisher-Yates over line indices; the first k * batch lines are
  // held back, batch by batch.
  std::vector<uint32_t> order(lines.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  s2rdf::SplitMix64 rng(seed ^ 0x5eedba7c4u);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  const size_t per_batch =
      static_cast<size_t>(batch_share * static_cast<double>(lines.size()));
  std::vector<int> batch_of(lines.size(), -1);
  for (int b = 0; b < holdout_batches; ++b) {
    for (size_t k = 0; k < per_batch; ++k) {
      batch_of[order[static_cast<size_t>(b) * per_batch + k]] = b;
    }
  }
  HoldoutSplit split;
  split.batches.resize(static_cast<size_t>(holdout_batches));
  std::set<std::string_view> seen;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (batch_of[i] < 0) {
      split.base.append(lines[i]).push_back('\n');
      seen.insert(lines[i]);
    }
  }
  for (int b = 0; b < holdout_batches; ++b) {
    uint64_t added = 0;
    // Batch lines keep their dataset order.
    for (size_t i = 0; i < lines.size(); ++i) {
      if (batch_of[i] != b) continue;
      split.batches[static_cast<size_t>(b)].append(lines[i]).push_back('\n');
      if (seen.insert(lines[i]).second) ++added;
    }
    split.expected_added.push_back(added);
  }
  return split;
}

std::vector<std::vector<std::string>> BasicQueryPool(uint64_t seed,
                                                     int per_template) {
  std::vector<std::vector<std::string>> pool;
  s2rdf::SplitMix64 rng(seed);
  for (const auto& tmpl : s2rdf::watdiv::BasicTestingQueries()) {
    std::set<std::string> distinct;
    // A few extra draws per wanted text; templates with small entity
    // classes simply end with fewer texts.
    for (int draw = 0; draw < 2 * per_template &&
                       static_cast<int>(distinct.size()) < per_template;
         ++draw) {
      distinct.insert(s2rdf::watdiv::InstantiateQuery(tmpl, 1.0, &rng));
    }
    pool.emplace_back(distinct.begin(), distinct.end());
  }
  return pool;
}

std::vector<std::string> SelectivityQueries() {
  std::vector<std::string> out;
  for (const auto& tmpl : s2rdf::watdiv::SelectivityTestingQueries()) {
    // 114 K - 863 K rows each (37 - 210 MB of JSON): formatting them
    // would be the whole workload.
    if (tmpl.name == "ST-3-1" || tmpl.name == "ST-5-2" ||
        tmpl.name == "ST-7-1") {
      continue;
    }
    s2rdf::SplitMix64 unused(0);
    out.push_back(s2rdf::watdiv::InstantiateQuery(tmpl, 1.0, &unused));
  }
  return out;
}

std::vector<std::string> AnalyticQueries() {
  // BGPs: ST-3-1 (follows/friendOf), ST-5-2 (friendOf * follows star),
  // ST-7-1 (friendOf/follows/homepage) and the IL-3 chain.
  const std::string st31 =
      "?v0 wsdbm:follows ?v1 . ?v1 wsdbm:friendOf ?v2 . ";
  const std::string st52 =
      "?v0 wsdbm:friendOf ?v1 . ?v0 wsdbm:follows ?v2 . ";
  const std::string st71 =
      "?v0 wsdbm:friendOf ?v1 . ?v1 wsdbm:follows ?v2 . "
      "?v2 foaf:homepage ?v3 . ";
  const std::string il3 =
      "?v0 gr:offers ?v1 . ?v1 gr:includes ?v2 . ?v2 rev:hasReview ?v3 . "
      "?v3 rev:reviewer ?v4 . ?v4 wsdbm:friendOf ?v5 . ";
  // Thirteen queries, twelve of comparable cost (~20-180 ms each on a
  // 4-core RelWithDebInfo build) and one sort of ~800 K rows (~300 ms):
  // nearest-rank p90 then falls inside the second-slowest query's band,
  // with a wide gap to the slowest above it, so it does not jump between
  // the two from run to run.
  const std::vector<std::string> bodies = {
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
      "SELECT (COUNT(*) AS ?n) WHERE { { " + st52 + "} UNION { "
      "?v0 wsdbm:follows ?v1 . ?v0 wsdbm:likes ?v2 . } }",
      "SELECT ?v0 (COUNT(*) AS ?n) WHERE { ?v0 wsdbm:friendOf ?v1 . "
      "?v1 wsdbm:friendOf ?v2 . } GROUP BY ?v0 ORDER BY DESC(?n) ?v0 LIMIT 10",
  };
  std::vector<std::string> out;
  for (const std::string& body : bodies) {
    out.push_back(s2rdf::watdiv::PrefixHeader() + body);
  }
  return out;
}

}  // namespace perfbench
