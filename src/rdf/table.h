#ifndef S2RDF_RDF_TABLE_H_
#define S2RDF_RDF_TABLE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/dictionary.h"

// Columnar in-memory table of dictionary-encoded term ids — the
// equivalent of a cached Spark SQL DataFrame: a named-column relation
// whose cells are 32-bit ids resolved against a Dictionary. Storage
// serializes it, the engine's operators consume and produce it, and the
// result writers render it. Column names double as SPARQL variable names
// during query execution, so natural joins join on shared names exactly
// like the paper's generated SQL does.

namespace s2rdf::rdf {

class Table {
 public:
  Table() = default;
  explicit Table(std::vector<std::string> column_names);

  Table(const Table&) = default;
  Table& operator=(const Table&) = default;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return columns_.size(); }

  const std::vector<std::string>& column_names() const {
    return column_names_;
  }

  // Index of the column named `name`, or -1 if absent.
  int ColumnIndex(std::string_view name) const;

  const std::vector<TermId>& Column(size_t i) const { return columns_[i]; }
  std::vector<TermId>& MutableColumn(size_t i) { return columns_[i]; }

  TermId At(size_t row, size_t col) const { return columns_[col][row]; }

  // Raw pointer to column i's ids (absolute row indexing). The unit the
  // chunked/vectorized kernels consume instead of per-row At() calls.
  const TermId* ColumnData(size_t i) const { return columns_[i].data(); }

  // Replaces the table's data wholesale with `columns` (one vector per
  // column, each `num_rows` long). The column-store fast path for
  // operators that produce whole columns — Project, the hash join's
  // gather, table decoding — instead of assembling rows. The row count
  // is explicit because a table with no columns still has rows: each is
  // one solution that binds no variable.
  void AdoptColumns(std::vector<std::vector<TermId>> columns, size_t num_rows);

  // Appends one row; `values.size()` must equal NumColumns().
  void AppendRow(const std::vector<TermId>& values);
  void AppendRow(std::initializer_list<TermId> values);

  // Copies row `row` of `source` into this table. Schemas must have equal
  // width (names may differ; caller guarantees positional compatibility).
  void AppendRowFrom(const Table& source, size_t row);

  // Column-wise batch counterpart of AppendRowFrom: appends `source`
  // rows rows[0..count) in order, output column j pulling from source
  // column source_cols[j] (source_cols.size() must equal NumColumns()),
  // gathering each output column in one pass so the inner loop touches a
  // single column vector at a time.
  void AppendGather(const Table& source, const std::vector<int>& source_cols,
                    const uint32_t* rows, size_t count);

  // Appends every row of `source`, which has this table's width, column
  // by column.
  void Append(const Table& source);

  void Reserve(size_t rows);

  // Renames column `i`.
  void SetColumnName(size_t i, std::string name);

  // Returns a copy whose columns are renamed to `names` (same arity).
  Table WithColumnNames(std::vector<std::string> names) const;

  // Approximate in-memory footprint, used by the shuffle meter.
  uint64_t ApproxBytes() const {
    return static_cast<uint64_t>(num_rows_) * columns_.size() *
           sizeof(TermId);
  }

  // Sorts rows lexicographically by all columns (canonical form used to
  // compare result sets in tests).
  void SortRowsCanonical();

  // True if `a` and `b` have the same column names (order-sensitive) and
  // the same bag of rows.
  static bool SameBag(const Table& a, const Table& b);

  // Renders a bounded debug string: header plus up to `max_rows` rows of
  // raw ids (or decoded terms when `dict` is non-null).
  std::string DebugString(const Dictionary* dict = nullptr,
                          size_t max_rows = 20) const;

 private:
  std::vector<std::string> column_names_;
  std::vector<std::vector<TermId>> columns_;
  size_t num_rows_ = 0;
};

}  // namespace s2rdf::rdf

#endif  // S2RDF_RDF_TABLE_H_
