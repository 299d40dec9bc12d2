#include "rdf/term.h"

#include <utility>

namespace s2rdf::rdf {

Term Term::Iri(std::string iri) {
  return Term(TermKind::kIri, std::move(iri), "", "");
}

Term Term::Blank(std::string name) {
  return Term(TermKind::kBlankNode, std::move(name), "", "");
}

Term Term::Literal(std::string lexical, std::string datatype,
                   std::string language) {
  return Term(TermKind::kLiteral, std::move(lexical), std::move(datatype),
              std::move(language));
}

std::string EscapeLiteral(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
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
        out += c;
    }
  }
  return out;
}

std::string UnescapeLiteral(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\' || i + 1 == escaped.size()) {
      out += escaped[i];
      continue;
    }
    ++i;
    switch (escaped[i]) {
      case '\\':
        out += '\\';
        break;
      case '"':
        out += '"';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      default:
        out += '\\';
        out += escaped[i];
    }
  }
  return out;
}

std::string Term::ToNTriples() const {
  switch (kind_) {
    case TermKind::kIri:
      return "<" + value_ + ">";
    case TermKind::kBlankNode:
      return "_:" + value_;
    case TermKind::kLiteral: {
      std::string out = "\"" + EscapeLiteral(value_) + "\"";
      if (!language_.empty()) {
        out += "@" + language_;
      } else if (!datatype_.empty()) {
        out += "^^<" + datatype_ + ">";
      }
      return out;
    }
  }
  return "";
}

StatusOr<TermView> ParseTermView(std::string_view token) {
  if (token.empty()) return InvalidArgumentError("empty term token");
  if (token.front() == '<') {
    if (token.back() != '>' || token.size() < 2) {
      return InvalidArgumentError("malformed IRI: " + std::string(token));
    }
    return TermView{TermKind::kIri, token.substr(1, token.size() - 2), {}, {}};
  }
  if (token.size() >= 2 && token[0] == '_' && token[1] == ':') {
    return TermView{TermKind::kBlankNode, token.substr(2), {}, {}};
  }
  if (token.front() == '"') {
    // Find the closing unescaped quote.
    size_t close = std::string_view::npos;
    for (size_t i = 1; i < token.size(); ++i) {
      if (token[i] == '\\') {
        ++i;
        continue;
      }
      if (token[i] == '"') {
        close = i;
        break;
      }
    }
    if (close == std::string_view::npos) {
      return InvalidArgumentError("unterminated literal: " +
                                  std::string(token));
    }
    TermView view{TermKind::kLiteral, token.substr(1, close - 1), {}, {}};
    std::string_view rest = token.substr(close + 1);
    if (rest.empty()) return view;
    if (rest.front() == '@') {
      view.language = rest.substr(1);
      return view;
    }
    if (rest.size() > 4 && rest.substr(0, 3) == "^^<" && rest.back() == '>') {
      view.datatype = rest.substr(3, rest.size() - 4);
      return view;
    }
    return InvalidArgumentError("malformed literal suffix: " +
                                std::string(token));
  }
  return InvalidArgumentError("unrecognized term: " + std::string(token));
}

StatusOr<Term> Term::Parse(std::string_view token) {
  S2RDF_ASSIGN_OR_RETURN(TermView view, ParseTermView(token));
  switch (view.kind) {
    case TermKind::kIri:
      return Term::Iri(std::string(view.value));
    case TermKind::kBlankNode:
      return Term::Blank(std::string(view.value));
    case TermKind::kLiteral:
      break;
  }
  return Term::Literal(UnescapeLiteral(view.value),
                       std::string(view.datatype), std::string(view.language));
}

}  // namespace s2rdf::rdf
