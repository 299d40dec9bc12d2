#ifndef S2RDF_RDF_TERM_H_
#define S2RDF_RDF_TERM_H_

#include <string>
#include <string_view>

#include "common/status.h"

// RDF term model. Terms are canonicalized to their N-Triples surface
// syntax (`<iri>`, `"literal"`, `"literal"^^<datatype>`, `"literal"@lang`,
// `_:blank`) and this canonical string is what the Dictionary interns, so
// equal terms always share a single id.

namespace s2rdf::rdf {

enum class TermKind {
  kIri,
  kLiteral,
  kBlankNode,
};

// An RDF term (IRI, literal or blank node).
//
// Example:
//   Term t = Term::Literal("42", "http://www.w3.org/2001/XMLSchema#integer");
//   t.ToNTriples();  // "42"^^<http://www.w3.org/2001/XMLSchema#integer>
class Term {
 public:
  // Factory functions; `iri` / `name` / `lexical` are raw (unescaped).
  static Term Iri(std::string iri);
  static Term Blank(std::string name);
  static Term Literal(std::string lexical, std::string datatype = "",
                      std::string language = "");

  // Parses a single N-Triples term token (e.g. `<http://x>` or `"a b"@en`).
  static StatusOr<Term> Parse(std::string_view token);

  TermKind kind() const { return kind_; }
  bool is_iri() const { return kind_ == TermKind::kIri; }
  bool is_literal() const { return kind_ == TermKind::kLiteral; }
  bool is_blank() const { return kind_ == TermKind::kBlankNode; }

  // Raw value: the IRI string, the blank node name, or the (unescaped)
  // literal lexical form.
  const std::string& value() const { return value_; }
  // Datatype IRI for typed literals; empty otherwise.
  const std::string& datatype() const { return datatype_; }
  // Language tag for language-tagged literals; empty otherwise.
  const std::string& language() const { return language_; }

  // Renders the canonical N-Triples form, escaping literal contents.
  std::string ToNTriples() const;

  friend bool operator==(const Term& a, const Term& b) {
    return a.kind_ == b.kind_ && a.value_ == b.value_ &&
           a.datatype_ == b.datatype_ && a.language_ == b.language_;
  }

 private:
  Term(TermKind kind, std::string value, std::string datatype,
       std::string language)
      : kind_(kind),
        value_(std::move(value)),
        datatype_(std::move(datatype)),
        language_(std::move(language)) {}

  TermKind kind_;
  std::string value_;
  std::string datatype_;
  std::string language_;
};

// A term token cut into its parts as views of the token: what
// Term::Parse copies into a Term.
struct TermView {
  TermKind kind = TermKind::kLiteral;
  // The IRI, the blank node name, or a literal's lexical form still
  // N-Triples-escaped (UnescapeLiteral gives the raw form).
  std::string_view value;
  std::string_view language;  // Language tag; empty if none.
  std::string_view datatype;  // Datatype IRI; empty if none.
};

// Parses a single N-Triples term token into views of `token`, without
// copying: accepts and rejects exactly what Term::Parse does, with the
// same errors.
StatusOr<TermView> ParseTermView(std::string_view token);

// Escapes a literal lexical form per N-Triples rules (\\, \", \n, \r, \t).
std::string EscapeLiteral(std::string_view raw);
// Reverses EscapeLiteral. Unknown escapes are passed through verbatim.
std::string UnescapeLiteral(std::string_view escaped);

}  // namespace s2rdf::rdf

#endif  // S2RDF_RDF_TERM_H_
