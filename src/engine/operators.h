#ifndef S2RDF_ENGINE_OPERATORS_H_
#define S2RDF_ENGINE_OPERATORS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/bitmap.h"
#include "engine/exec_context.h"
#include "engine/expression.h"
#include "rdf/dictionary.h"
#include "rdf/table.h"
#include "sparql/expr.h"

// Relational operators over columnar tables. These are the execution
// primitives the SPARQL compiler targets — the in-process analogue of the
// Spark SQL operators S2RDF generates. Every operator meters its inputs
// in the ExecContext (see exec_context.h for the accounting model).
//
// Each operator kind has exactly one implementation. The data-parallel
// ones (scan, filter, hash join, distinct, order-by and, in aggregate.h,
// group-by) are morsel kernels — the analogue of one partitioned Spark
// stage: an input of kParallelRowThreshold rows or more fans out over
// the shared TaskPool (common/task_pool.h), a smaller one runs inline on
// the calling thread as one morsel and one partition. Output tables and
// ExecMetrics never depend on that split: morsels gather back in input
// order, dedup keeps first occurrences, the sort merge is stable, and
// only the calling thread writes metrics.
//
// Interrupt discipline: morsel bodies poll ctx->InterruptRequested()
// (read only) every kInterruptCheckRows rows and bail; the calling
// thread records the reason via CheckInterrupt() and the operator
// returns an empty table — ExecutePlan discards partial results anyway.

namespace s2rdf::engine {

using sparql::kNoLimit;
using sparql::SortKey;

// --- Morsel execution ---------------------------------------------------

// Rows from which an operator input fans out over the shared TaskPool.
// Below it the task hand-off costs more than it saves.
inline constexpr size_t kParallelRowThreshold = 4096;

// Morsel-size auto-tune bounds. A morsel targets kMorselTargetBytes of
// ids (≈ the private L2 slice a worker can keep hot), clamped so tiny
// rows never make morsels outnumber the interrupt cadence usefully and
// wide rows never degenerate to per-row tasks.
inline constexpr size_t kMinMorselRows = 1024;
inline constexpr size_t kMaxMorselRows = 65536;
inline constexpr size_t kMorselTargetBytes = 256 * 1024;

// Rows per sub-chunk of the vectorized scan. At most kInterruptCheckRows,
// so a per-chunk interrupt poll keeps the row-loop check cadence; small
// enough that a chunk's selection vector stays cache-resident.
inline constexpr size_t kVectorChunkRows = 2048;

// Rows per morsel for a fanned-out input of `rows` x `columns` ids on a
// pool of `width` workers: tuned to the byte target above and capped at
// rows / (4 x width), so dynamic load balancing always has several
// morsels per worker.
size_t MorselRowsFor(size_t rows, size_t columns, size_t width);

// How one operator splits an input of `rows` rows of `columns` ids.
struct FanOut {
  // Partitioned when `rows` reaches kParallelRowThreshold.
  FanOut(size_t rows, size_t columns)
      : FanOut(rows, columns, rows >= kParallelRowThreshold) {}
  // `partition` decides instead of the row count (a join decides once
  // for both of its inputs).
  FanOut(size_t rows, size_t columns, bool partition);

  // Runs body(0) .. body(n-1): on the shared TaskPool when width > 1,
  // else inline on the calling thread (no task, no std::function).
  template <typename Body>
  void Run(size_t n, const Body& body) const {
    if (width > 1) {
      RunOnPool(n, body);
      return;
    }
    for (size_t i = 0; i < n; ++i) body(i);
  }

  // Row range [Begin(m), End(m)) of morsel m.
  size_t Begin(size_t morsel) const { return morsel * rows_per_morsel; }
  size_t End(size_t morsel) const {
    return std::min(rows, Begin(morsel) + rows_per_morsel);
  }

  size_t rows;
  // The input reached kParallelRowThreshold: the operator is partitioned
  // (and records per-morsel TaskSpans when profiling) even on a pool of
  // width 1.
  bool partitioned;
  // Partitions: the pool's width when partitioned, else 1.
  size_t width;
  // One morsel of every row when width is 1.
  size_t rows_per_morsel;
  size_t morsels;

 private:
  static void RunOnPool(size_t n, const std::function<void(size_t)>& body);
};

// --- Operators ----------------------------------------------------------

// Selection + projection applied during a base-table scan. This is the
// shape of the paper's TP2SQL output: bound triple-pattern positions
// become equality conditions, variables become renamed projections.
struct ScanSpec {
  // (base column index, required id): rows must match all conditions.
  std::vector<std::pair<int, TermId>> conditions;
  // (column index, column index): rows must have equal values (repeated
  // variable within one triple pattern, e.g. `?x :p ?x`).
  std::vector<std::pair<int, int>> equal_columns;
  // Columns that must not be null (property-table star scans).
  std::vector<int> not_null_columns;
  // Optional row-level filter bitmap (bit i = keep row i); must have
  // exactly NumRows() bits. This is the execution hook of the bit-vector
  // ExtVP representation: only surviving rows count as input, modeling a
  // selective columnar read driven by the bitmap index.
  const Bitmap* row_filter = nullptr;
  // (base column index, output column name): emitted in order.
  std::vector<std::pair<int, std::string>> projections;
};

// Scans `base`, applying `spec`. Meters |base| input tuples (the set
// bits of spec.row_filter when one is given). Vectorized: each morsel
// builds a selection vector per kVectorChunkRows sub-chunk, prunes it one
// predicate column at a time and gathers the projected columns in one
// batched append.
Table ScanSelectProject(const Table& base, const ScanSpec& spec,
                        ExecContext* ctx);

// Natural hash join on all shared column names. Degenerates to a cross
// product when no names are shared. Rows with a null (kNullTermId) join
// key never match. Meters |L|x|R| join comparisons and repartition
// shuffle of both inputs. Output order is canonical: left rows in input
// order, each left row's matches in ascending right-row order.
//
// Radix-partitioned (engine/hash_join.cc): morsels hash their rows
// column-at-a-time and scatter them into partitions, each partition
// builds a flat chain table on the smaller input and probes it, and the
// gather merges the partitions back into canonical order column-wise.
Table HashJoin(const Table& left, const Table& right, ExecContext* ctx);

// Natural sort-merge join on all shared column names — the local merge
// join H2RDF+ runs over its sorted indexes. Same bag as HashJoin (row
// order differs); requires at least one shared column.
Table SortMergeJoin(const Table& left, const Table& right, ExecContext* ctx);

// Left semi join: rows of `left` whose `left_col` value appears in
// `right_col` of `right`. The primitive behind ExtVP's precomputation.
Table SemiJoin(const Table& left, int left_col, const Table& right,
               int right_col, ExecContext* ctx);

// Natural left outer join (SPARQL OPTIONAL). Unmatched left rows emit
// nulls for right-only columns. An optional `condition` is evaluated on
// each joined candidate row (OPTIONAL { ... FILTER(...) } semantics).
Table LeftOuterJoin(const Table& left, const Table& right,
                    const Expr* condition, const rdf::Dictionary& dict,
                    ExecContext* ctx);

// Bag union; schemas are aligned by column name, missing columns become
// null. Column order follows `a` then new columns of `b`.
Table UnionAll(const Table& a, const Table& b, ExecContext* ctx);

// Removes duplicate rows (bag -> set), keeping first occurrences in input
// order. Rows are hashed column-at-a-time and deduplicated per hash
// partition in a flat open-addressing table.
Table Distinct(const Table& t, ExecContext* ctx);

// Value-aware stable sort (numeric literals order numerically). Sort-key
// terms are decoded once per morsel; partitions stable-sort contiguous
// row ranges and a k-way merge that breaks ties toward the earlier range
// reproduces one full stable sort. The comparator itself never reads the
// clock (that would break strict weak ordering).
Table OrderBy(const Table& t, const std::vector<SortKey>& keys,
              const rdf::Dictionary& dict, ExecContext* ctx = nullptr);

// OFFSET/LIMIT. `limit` == kNoLimit keeps all remaining rows.
Table Slice(const Table& t, uint64_t offset, uint64_t limit);

// Keeps exactly `columns` in the given order. Unknown names yield
// all-null columns (unbound projection variables).
Table Project(const Table& t, const std::vector<std::string>& columns);

// FILTER: keeps rows where `expr` evaluates to true. When every variable
// the expression reads is one column, each morsel memoizes the verdict
// per distinct id it sees.
Table Filter(const Table& t, const Expr& expr, const rdf::Dictionary& dict,
             ExecContext* ctx);

// --- Row-key helpers ----------------------------------------------------

// Seed of every row-key hash lane.
inline constexpr uint64_t kRowHashSeed = 0x9e3779b97f4a7c15ULL;

// The partition in [0, parts) of a row hash: a multiply-shift over the
// hash's low 32 bits (a division per row would dominate the partition
// scans). Hash tables inside one partition key on the high 32 bits.
inline size_t PartitionOf(uint64_t hash, size_t parts) {
  return static_cast<size_t>(((hash & 0xffffffffULL) * parts) >> 32);
}

// Hashes the values of `row` at `cols` in `table`. The column-at-a-time
// hashing of the kernels computes exactly this value.
uint64_t RowKeyHash(const Table& table, size_t row,
                    const std::vector<int>& cols);

bool RowKeysEqual(const Table& a, size_t row_a, const std::vector<int>& cols_a,
                  const Table& b, size_t row_b,
                  const std::vector<int>& cols_b);

bool RowKeyHasNull(const Table& t, size_t row, const std::vector<int>& cols);

// Fills (*hashes)[r] = RowKeyHash(t, r, cols) for every row of `t`,
// column-at-a-time over `fan`'s morsels; records a TaskSpan labelled
// `span_label` per morsel when profiling a partitioned operator.
// Returns false when a morsel observed an interrupt.
bool HashRows(const Table& t, const std::vector<int>& cols,
              const FanOut& fan, const ExecContext* ctx,
              const char* span_label, std::vector<uint64_t>* hashes);

// Shared-column discovery for natural joins: fills (left key indices,
// right key indices, right-only indices) in right-schema order.
void JoinSharedColumns(const Table& left, const Table& right,
                       std::vector<int>* left_keys,
                       std::vector<int>* right_keys,
                       std::vector<int>* right_only);

// Empty output table with `left`'s columns followed by `right_only`.
Table JoinOutputSchema(const Table& left, const Table& right,
                       const std::vector<int>& right_only);

// Appends left row `lrow` concatenated with `right_only` of `rrow`.
void EmitJoinedRow(const Table& left, size_t lrow, const Table& right,
                   size_t rrow, const std::vector<int>& right_only, Table* out);

}  // namespace s2rdf::engine

#endif  // S2RDF_ENGINE_OPERATORS_H_
