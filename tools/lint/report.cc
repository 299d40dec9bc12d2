#include "report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

namespace s2rdf::lint {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendFindingJson(const Violation& v, std::string* out) {
  *out += "{\"file\":\"" + JsonEscape(v.file) +
          "\",\"line\":" + std::to_string(v.line) + ",\"rule\":\"" +
          JsonEscape(v.rule) + "\",\"message\":\"" + JsonEscape(v.message) +
          "\"}";
}

size_t CountStaleMarkers(const AnalysisResult& result) {
  size_t stale = 0;
  for (const MarkerUsage& m : result.markers) {
    if (!m.used) ++stale;
  }
  return stale;
}

}  // namespace

std::string RenderText(const AnalysisResult& result) {
  std::string out;
  for (const Violation& v : result.findings) {
    out += FormatViolation(v) + "\n";
  }
  out += "s2rdf_lint: " + std::to_string(result.files_scanned) +
         " file(s), " + std::to_string(result.findings.size()) +
         " finding(s)";
  size_t total_markers = result.markers.size();
  size_t stale_markers = CountStaleMarkers(result);
  out += "; suppressions: " + std::to_string(total_markers) + " (" +
         std::to_string(stale_markers) + " stale)\n";
  return out;
}

std::string RenderJson(const AnalysisResult& result) {
  std::string out = "{\"tool\":\"s2rdf_lint\",\"files_scanned\":" +
                    std::to_string(result.files_scanned) + ",";
  out += "\"findings\":[";
  for (size_t i = 0; i < result.findings.size(); ++i) {
    if (i) out += ",";
    AppendFindingJson(result.findings[i], &out);
  }
  out += "],";
  out += "\"suppressions\":{\"total\":" +
         std::to_string(result.markers.size()) +
         ",\"stale\":" + std::to_string(CountStaleMarkers(result)) + "}";
  out += "}\n";
  return out;
}

std::string RenderSarif(const AnalysisResult& result) {
  const std::vector<Violation>& findings = result.findings;
  // Rule metadata: one reportingDescriptor per distinct rule.
  std::vector<std::string> rules;
  {
    std::set<std::string> seen;
    for (const Violation& v : findings) {
      if (seen.insert(v.rule).second) rules.push_back(v.rule);
    }
    std::sort(rules.begin(), rules.end());
  }
  std::map<std::string, size_t> rule_index;
  for (size_t i = 0; i < rules.size(); ++i) rule_index[rules[i]] = i;

  std::string out =
      "{\"$schema\":"
      "\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"s2rdf_lint\",\"informationUri\":"
      "\"https://example.invalid/s2rdf/tools/lint\",\"rules\":[";
  for (size_t i = 0; i < rules.size(); ++i) {
    if (i) out += ",";
    out += "{\"id\":\"" + JsonEscape(rules[i]) + "\"}";
  }
  out += "]}},\"results\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Violation& v = findings[i];
    if (i) out += ",";
    out += "{\"ruleId\":\"" + JsonEscape(v.rule) + "\",\"ruleIndex\":" +
           std::to_string(rule_index[v.rule]) +
           ",\"level\":\"error\",\"message\":{\"text\":\"" +
           JsonEscape(v.message) + "\"},\"locations\":[{"
           "\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"" +
           JsonEscape(v.file) + "\"},\"region\":{\"startLine\":" +
           std::to_string(std::max(v.line, 1)) + "}}}]}";
  }
  out += "]}]}\n";
  return out;
}

}  // namespace s2rdf::lint
