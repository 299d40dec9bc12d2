#include "rdf/table.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace s2rdf::rdf {

Table::Table(std::vector<std::string> column_names)
    : column_names_(std::move(column_names)),
      columns_(column_names_.size()) {}

int Table::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (column_names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void Table::AdoptColumns(std::vector<std::vector<TermId>> columns,
                         size_t num_rows) {
  S2RDF_DCHECK(columns.size() == column_names_.size());
  num_rows_ = num_rows;
  for ([[maybe_unused]] const auto& col : columns) {
    S2RDF_DCHECK(col.size() == num_rows_);
  }
  columns_ = std::move(columns);
}

void Table::AppendRow(const std::vector<TermId>& values) {
  S2RDF_DCHECK(values.size() == columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].push_back(values[i]);
  }
  ++num_rows_;
}

void Table::AppendRow(std::initializer_list<TermId> values) {
  S2RDF_DCHECK(values.size() == columns_.size());
  size_t i = 0;
  for (TermId v : values) columns_[i++].push_back(v);
  ++num_rows_;
}

void Table::AppendRowFrom(const Table& source, size_t row) {
  S2RDF_DCHECK(source.NumColumns() == columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].push_back(source.columns_[i][row]);
  }
  ++num_rows_;
}

void Table::AppendGather(const Table& source,
                         const std::vector<int>& source_cols,
                         const uint32_t* rows, size_t count) {
  S2RDF_DCHECK(source_cols.size() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const TermId* src = source.columns_[source_cols[c]].data();
    auto& dst = columns_[c];
    size_t base = dst.size();
    dst.resize(base + count);
    TermId* out = dst.data() + base;
    for (size_t i = 0; i < count; ++i) out[i] = src[rows[i]];
  }
  num_rows_ += count;
}

void Table::Append(const Table& source) {
  S2RDF_DCHECK(source.NumColumns() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].insert(columns_[c].end(), source.columns_[c].begin(),
                       source.columns_[c].end());
  }
  num_rows_ += source.num_rows_;
}

void Table::Reserve(size_t rows) {
  for (auto& col : columns_) col.reserve(rows);
}

void Table::SetColumnName(size_t i, std::string name) {
  S2RDF_DCHECK(i < column_names_.size());
  column_names_[i] = std::move(name);
}

Table Table::WithColumnNames(std::vector<std::string> names) const {
  S2RDF_CHECK(names.size() == column_names_.size());
  Table out = *this;
  out.column_names_ = std::move(names);
  return out;
}

void Table::SortRowsCanonical() {
  std::vector<size_t> order(num_rows_);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    for (const auto& col : columns_) {
      if (col[a] != col[b]) return col[a] < col[b];
    }
    return false;
  });
  for (auto& col : columns_) {
    std::vector<TermId> sorted(num_rows_);
    for (size_t i = 0; i < num_rows_; ++i) sorted[i] = col[order[i]];
    col = std::move(sorted);
  }
}

bool Table::SameBag(const Table& a, const Table& b) {
  if (a.column_names_ != b.column_names_) return false;
  if (a.num_rows_ != b.num_rows_) return false;
  Table sa = a;
  Table sb = b;
  sa.SortRowsCanonical();
  sb.SortRowsCanonical();
  return sa.columns_ == sb.columns_;
}

std::string Table::DebugString(const Dictionary* dict,
                               size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (i > 0) out += " | ";
    out += column_names_[i];
  }
  out += "\n";
  size_t shown = std::min(num_rows_, max_rows);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += " | ";
      TermId id = columns_[c][r];
      if (id == kNullTermId) {
        out += "NULL";
      } else if (dict != nullptr) {
        out += dict->Decode(id);
      } else {
        out += std::to_string(id);
      }
    }
    out += "\n";
  }
  if (shown < num_rows_) {
    out += "... (" + std::to_string(num_rows_ - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace s2rdf::rdf
