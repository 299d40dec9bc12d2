#include "tests/reference_results_io.h"

#include <cstdio>

#include "rdf/term.h"

namespace s2rdf::reference {

namespace {

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string XmlEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Renders one term as a SPARQL-JSON binding object.
std::string TermToJson(const std::string& canonical) {
  StatusOr<rdf::Term> term = rdf::Term::Parse(canonical);
  if (!term.ok()) {
    return R"({"type": "literal", "value": ")" + JsonEscape(canonical) +
           "\"}";
  }
  switch (term->kind()) {
    case rdf::TermKind::kIri:
      return R"({"type": "uri", "value": ")" + JsonEscape(term->value()) +
             "\"}";
    case rdf::TermKind::kBlankNode:
      return R"({"type": "bnode", "value": ")" + JsonEscape(term->value()) +
             "\"}";
    case rdf::TermKind::kLiteral: {
      std::string out =
          R"({"type": "literal", "value": ")" + JsonEscape(term->value()) +
          "\"";
      if (!term->language().empty()) {
        out += R"(, "xml:lang": ")" + JsonEscape(term->language()) + "\"";
      } else if (!term->datatype().empty()) {
        out += R"(, "datatype": ")" + JsonEscape(term->datatype()) + "\"";
      }
      return out + "}";
    }
  }
  return "{}";
}

std::string TermToXml(const std::string& canonical) {
  StatusOr<rdf::Term> term = rdf::Term::Parse(canonical);
  if (!term.ok()) {
    return "<literal>" + XmlEscape(canonical) + "</literal>";
  }
  switch (term->kind()) {
    case rdf::TermKind::kIri:
      return "<uri>" + XmlEscape(term->value()) + "</uri>";
    case rdf::TermKind::kBlankNode:
      return "<bnode>" + XmlEscape(term->value()) + "</bnode>";
    case rdf::TermKind::kLiteral: {
      std::string attrs;
      if (!term->language().empty()) {
        attrs = " xml:lang=\"" + XmlEscape(term->language()) + "\"";
      } else if (!term->datatype().empty()) {
        attrs = " datatype=\"" + XmlEscape(term->datatype()) + "\"";
      }
      return "<literal" + attrs + ">" + XmlEscape(term->value()) +
             "</literal>";
    }
  }
  return "";
}

// CSV cell: the plain value (IRIs without brackets, literal lexical
// forms), quoted per RFC 4180 when needed.
std::string TermToCsv(const std::string& canonical) {
  StatusOr<rdf::Term> term = rdf::Term::Parse(canonical);
  std::string value = term.ok() ? term->value() : canonical;
  bool needs_quotes = value.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return value;
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string ResultsToJson(const rdf::Table& table,
                          const rdf::Dictionary& dict) {
  std::string out = "{\n  \"head\": { \"vars\": [";
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    if (c > 0) out += ", ";
    out += "\"" + JsonEscape(table.column_names()[c]) + "\"";
  }
  out += "] },\n  \"results\": { \"bindings\": [\n";
  for (size_t r = 0; r < table.NumRows(); ++r) {
    out += "    {";
    bool first = true;
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      rdf::TermId id = table.At(r, c);
      if (id == rdf::kNullTermId) continue;  // Unbound: omitted.
      if (!first) out += ", ";
      first = false;
      out += "\"" + JsonEscape(table.column_names()[c]) +
             "\": " + TermToJson(dict.Decode(id));
    }
    out += r + 1 < table.NumRows() ? "},\n" : "}\n";
  }
  out += "  ] }\n}\n";
  return out;
}

std::string ResultsToXml(const rdf::Table& table,
                         const rdf::Dictionary& dict) {
  std::string out =
      "<?xml version=\"1.0\"?>\n"
      "<sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n"
      "  <head>\n";
  for (const std::string& name : table.column_names()) {
    out += "    <variable name=\"" + XmlEscape(name) + "\"/>\n";
  }
  out += "  </head>\n  <results>\n";
  for (size_t r = 0; r < table.NumRows(); ++r) {
    out += "    <result>\n";
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      rdf::TermId id = table.At(r, c);
      if (id == rdf::kNullTermId) continue;
      out += "      <binding name=\"" +
             XmlEscape(table.column_names()[c]) + "\">" +
             TermToXml(dict.Decode(id)) + "</binding>\n";
    }
    out += "    </result>\n";
  }
  out += "  </results>\n</sparql>\n";
  return out;
}

std::string ResultsToCsv(const rdf::Table& table,
                         const rdf::Dictionary& dict) {
  std::string out;
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    if (c > 0) out += ",";
    out += table.column_names()[c];
  }
  out += "\r\n";
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      if (c > 0) out += ",";
      rdf::TermId id = table.At(r, c);
      if (id != rdf::kNullTermId) out += TermToCsv(dict.Decode(id));
    }
    out += "\r\n";
  }
  return out;
}

std::string ResultsToTsv(const rdf::Table& table,
                         const rdf::Dictionary& dict) {
  std::string out;
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    if (c > 0) out += "\t";
    out += "?" + table.column_names()[c];
  }
  out += "\n";
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      if (c > 0) out += "\t";
      rdf::TermId id = table.At(r, c);
      if (id != rdf::kNullTermId) out += dict.Decode(id);
    }
    out += "\n";
  }
  return out;
}

std::string AskToJson(bool result) {
  return std::string("{ \"head\": {}, \"boolean\": ") +
         (result ? "true" : "false") + " }\n";
}

std::string AskToXml(bool result) {
  return std::string(
             "<?xml version=\"1.0\"?>\n"
             "<sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n"
             "  <head/>\n  <boolean>") +
         (result ? "true" : "false") + "</boolean>\n</sparql>\n";
}

}  // namespace s2rdf::reference
