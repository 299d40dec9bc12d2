#include "sparql/results_io.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "rdf/term.h"

namespace s2rdf::sparql {

namespace {

using rdf::kNullTermId;
using rdf::TermId;

// Rows written before the output buffer is sized for the whole answer.
constexpr size_t kSampleRows = 1024;

constexpr std::string_view kXmlProlog =
    "<?xml version=\"1.0\"?>\n"
    "<sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n";

// Appends `raw` escaped for a JSON string: \" \\ \n \r \t, \u00XX for
// the other control characters, every other byte verbatim.
void AppendJsonEscaped(std::string_view raw, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;  // Start of the verbatim bytes not yet appended.
  for (size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(raw.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(raw.data() + run, raw.size() - run);
}

// Appends `raw` with the XML specials < > & " as entities.
void AppendXmlEscaped(std::string_view raw, std::string* out) {
  size_t run = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    std::string_view entity;
    switch (raw[i]) {
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '&':
        entity = "&amp;";
        break;
      case '"':
        entity = "&quot;";
        break;
      default:
        continue;
    }
    out->append(raw.data() + run, i - run);
    out->append(entity);
    run = i + 1;
  }
  out->append(raw.data() + run, raw.size() - run);
}

// Appends `value` as an RFC 4180 field: quoted, inner quotes doubled,
// when it holds a comma, quote, CR or LF; verbatim otherwise.
void AppendCsvField(std::string_view value, std::string* out) {
  // A plain loop: find_first_of makes a library call per byte.
  bool quote = false;
  for (char c : value) {
    quote |= c == ',' || c == '"' || c == '\n' || c == '\r';
  }
  if (!quote) {
    out->append(value);
    return;
  }
  out->push_back('"');
  for (char c : value) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

// `canonical` cut into its parts (rdf::ParseTermView), with a literal's
// lexical form unescaped into `*unescaped` when it holds escapes. A
// string that is not a valid term comes back as a plain literal of the
// whole string, which is how every format renders it.
rdf::TermView ViewTerm(std::string_view canonical, std::string* unescaped) {
  StatusOr<rdf::TermView> term = rdf::ParseTermView(canonical);
  if (!term.ok()) return {rdf::TermKind::kLiteral, canonical, {}, {}};
  if (term->kind == rdf::TermKind::kLiteral &&
      term->value.find('\\') != std::string_view::npos) {
    *unescaped = rdf::UnescapeLiteral(term->value);
    term->value = *unescaped;
  }
  return *term;
}

// The JSON "type" and the XML element name of a term kind.
std::string_view KindName(rdf::TermKind kind) {
  switch (kind) {
    case rdf::TermKind::kIri:
      return "uri";
    case rdf::TermKind::kBlankNode:
      return "bnode";
    case rdf::TermKind::kLiteral:
      break;
  }
  return "literal";
}

// Appends the `format` cell of the canonical term `canonical`: a binding
// object (JSON), a term element (XML) or a field (CSV). (A TSV cell is
// the canonical term itself.)
void AppendCell(ResultFormat format, std::string_view canonical,
                std::string* out) {
  std::string unescaped;  // Filled only for literals with escapes.
  const rdf::TermView term = ViewTerm(canonical, &unescaped);
  if (format == ResultFormat::kCsv) {
    AppendCsvField(term.value, out);
    return;
  }
  const std::string_view kind = KindName(term.kind);
  if (format == ResultFormat::kJson) {
    out->append("{\"type\": \"");
    out->append(kind);
    out->append("\", \"value\": \"");
    AppendJsonEscaped(term.value, out);
    out->push_back('"');
    if (!term.language.empty()) {
      out->append(", \"xml:lang\": \"");
      AppendJsonEscaped(term.language, out);
      out->push_back('"');
    } else if (!term.datatype.empty()) {
      out->append(", \"datatype\": \"");
      AppendJsonEscaped(term.datatype, out);
      out->push_back('"');
    }
    out->push_back('}');
    return;
  }
  out->push_back('<');
  out->append(kind);
  if (!term.language.empty()) {
    out->append(" xml:lang=\"");
    AppendXmlEscaped(term.language, out);
    out->push_back('"');
  } else if (!term.datatype.empty()) {
    out->append(" datatype=\"");
    AppendXmlEscaped(term.datatype, out);
    out->push_back('"');
  }
  out->push_back('>');
  AppendXmlEscaped(term.value, out);
  out->append("</");
  out->append(kind);
  out->push_back('>');
}

// The rendered cells of one response, keyed by term id: open addressing
// over at least twice as many slots as the response can meet distinct
// ids (so sized by the table, capped by the dictionary). Each slot
// points at the span of the output where its id was first rendered, so
// the output itself is the arena and a repeat is a copy from earlier in
// it.
class CellMemo {
 public:
  explicit CellMemo(size_t max_ids)
      : mask_(std::bit_ceil(2 * max_ids) - 1), slots_(mask_ + 1) {}

  // Appends the cell of `id` to `*out`: a copy of its first rendering,
  // or on first sight whatever `render()` appends.
  template <typename Render>
  void Append(TermId id, std::string* out, Render&& render) {
    size_t i = ((uint64_t{id} * 0x9e3779b97f4a7c15ULL) >> 32) & mask_;
    while (slots_[i].id != kNullTermId && slots_[i].id != id) {
      i = (i + 1) & mask_;
    }
    Slot& slot = slots_[i];
    if (slot.id == id) {
      const Span& span = spans_[slot.span];
      out->append(*out, span.begin, span.size);
      return;
    }
    const size_t begin = out->size();
    render();
    // Distinct 32-bit ids, kNullTermId excluded: the index fits.
    slot = {id, static_cast<uint32_t>(spans_.size())};
    spans_.push_back({begin, out->size() - begin});
  }

 private:
  struct Slot {
    TermId id = kNullTermId;  // kNullTermId: empty (never a bound cell).
    uint32_t span = 0;        // Index into spans_.
  };
  struct Span {
    size_t begin;
    size_t size;
  };

  size_t mask_;
  std::vector<Slot> slots_;
  std::vector<Span> spans_;
};

// The fixed text of a format around and between its cells.
struct Syntax {
  bool omit_unbound;  // Unbound cells vanish (JSON, XML) or stay empty.
  std::string_view separator;  // Between the cells of a row.
  std::string_view row_open;
  std::string_view row_close;
  std::string_view last_row_close;
  std::string_view cell_close;
  std::string_view tail;
};

const Syntax& SyntaxOf(ResultFormat format) {
  static constexpr Syntax kJson{.omit_unbound = true,
                                .separator = ", ",
                                .row_open = "    {",
                                .row_close = "},\n",
                                .last_row_close = "}\n",
                                .cell_close = "",
                                .tail = "  ] }\n}\n"};
  static constexpr Syntax kXml{.omit_unbound = true,
                               .separator = "",
                               .row_open = "    <result>\n",
                               .row_close = "    </result>\n",
                               .last_row_close = "    </result>\n",
                               .cell_close = "</binding>\n",
                               .tail = "  </results>\n</sparql>\n"};
  static constexpr Syntax kCsv{.omit_unbound = false,
                               .separator = ",",
                               .row_open = "",
                               .row_close = "\r\n",
                               .last_row_close = "\r\n",
                               .cell_close = "",
                               .tail = ""};
  static constexpr Syntax kTsv{.omit_unbound = false,
                               .separator = "\t",
                               .row_open = "",
                               .row_close = "\n",
                               .last_row_close = "\n",
                               .cell_close = "",
                               .tail = ""};
  switch (format) {
    case ResultFormat::kJson:
      return kJson;
    case ResultFormat::kXml:
      return kXml;
    case ResultFormat::kCsv:
      return kCsv;
    case ResultFormat::kTsv:
      break;
  }
  return kTsv;
}

// Appends the format's head to `out` and returns each column's cell
// opener, escaping every column name once.
std::vector<std::string> AppendHead(ResultFormat format,
                                    const std::vector<std::string>& names,
                                    std::string* out) {
  std::vector<std::string> openers(names.size());
  std::string name;
  switch (format) {
    case ResultFormat::kJson:
      out->append("{\n  \"head\": { \"vars\": [");
      for (size_t c = 0; c < names.size(); ++c) {
        name.clear();
        AppendJsonEscaped(names[c], &name);
        if (c > 0) out->append(", ");
        out->append("\"" + name + "\"");
        openers[c] = "\"" + name + "\": ";
      }
      out->append("] },\n  \"results\": { \"bindings\": [\n");
      break;
    case ResultFormat::kXml:
      out->append(kXmlProlog);
      out->append("  <head>\n");
      for (size_t c = 0; c < names.size(); ++c) {
        name.clear();
        AppendXmlEscaped(names[c], &name);
        out->append("    <variable name=\"" + name + "\"/>\n");
        openers[c] = "      <binding name=\"" + name + "\">";
      }
      out->append("  </head>\n  <results>\n");
      break;
    case ResultFormat::kCsv:
    case ResultFormat::kTsv:
      // Names go out unescaped; TSV marks them as variables.
      for (size_t c = 0; c < names.size(); ++c) {
        if (c > 0) out->append(SyntaxOf(format).separator);
        if (format == ResultFormat::kTsv) out->push_back('?');
        out->append(names[c]);
      }
      out->append(SyntaxOf(format).row_close);
      break;
  }
  return openers;
}

}  // namespace

std::string WriteResults(const rdf::Table& table,
                         const rdf::Dictionary& dict, ResultFormat format) {
  const Syntax& syntax = SyntaxOf(format);
  std::string out;
  const std::vector<std::string> openers =
      AppendHead(format, table.column_names(), &out);
  const size_t head_bytes = out.size();
  const size_t rows = table.NumRows();
  const size_t columns = table.NumColumns();
  std::vector<const TermId*> data(columns);
  for (size_t c = 0; c < columns; ++c) data[c] = table.ColumnData(c);
  // A TSV cell is the canonical term itself: nothing to render, so
  // nothing to memoize.
  const bool memoize = format != ResultFormat::kTsv;
  CellMemo memo(memoize ? std::min(rows * columns, dict.size()) : 0);
  // Appends a piece of fixed text. Every format leaves some pieces empty,
  // and even an empty append costs a library call.
  auto put = [&out](std::string_view piece) {
    if (!piece.empty()) out.append(piece);
  };
  for (size_t r = 0; r < rows; ++r) {
    put(syntax.row_open);
    bool first = true;
    for (size_t c = 0; c < columns; ++c) {
      const TermId id = data[c][r];
      if (id == kNullTermId && syntax.omit_unbound) continue;
      if (!first) put(syntax.separator);
      first = false;
      if (id == kNullTermId) continue;
      put(openers[c]);
      if (memoize) {
        memo.Append(id, &out,
                    [&] { AppendCell(format, dict.Decode(id), &out); });
      } else {
        out.append(dict.Decode(id));
      }
      put(syntax.cell_close);
    }
    out.append(r + 1 < rows ? syntax.row_close : syntax.last_row_close);
    if (r + 1 == kSampleRows && rows > kSampleRows) {
      // Size the buffer for the whole answer at the sampled bytes per
      // row (plus a quarter), so a large answer is not copied through
      // every doubling. Pages a generous guess leaves untouched cost no
      // memory.
      const size_t per_row = (out.size() - head_bytes) / kSampleRows;
      out.reserve(head_bytes + per_row * rows / 4 * 5 + syntax.tail.size());
    }
  }
  out.append(syntax.tail);
  return out;
}

std::string ResultsToJson(const rdf::Table& table,
                          const rdf::Dictionary& dict) {
  return WriteResults(table, dict, ResultFormat::kJson);
}

std::string ResultsToXml(const rdf::Table& table,
                         const rdf::Dictionary& dict) {
  return WriteResults(table, dict, ResultFormat::kXml);
}

std::string ResultsToCsv(const rdf::Table& table,
                         const rdf::Dictionary& dict) {
  return WriteResults(table, dict, ResultFormat::kCsv);
}

std::string ResultsToTsv(const rdf::Table& table,
                         const rdf::Dictionary& dict) {
  return WriteResults(table, dict, ResultFormat::kTsv);
}

std::string AskToJson(bool result) {
  return std::string("{ \"head\": {}, \"boolean\": ") +
         (result ? "true" : "false") + " }\n";
}

std::string AskToXml(bool result) {
  return std::string(kXmlProlog) + "  <head/>\n  <boolean>" +
         (result ? "true" : "false") + "</boolean>\n</sparql>\n";
}

}  // namespace s2rdf::sparql
