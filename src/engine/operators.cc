#include "engine/operators.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/hash.h"
#include "common/task_pool.h"
#include "engine/value.h"

namespace s2rdf::engine {

namespace {

inline constexpr uint32_t kNoRow = 0xffffffffu;

// Appends to `rows` every row of [begin, end) that passes `spec`, in
// ascending order: the tail of `rows` serves as the selection vector of
// each kVectorChunkRows sub-chunk, pruned one predicate column at a
// time. Polls the interrupt state (read only) once per sub-chunk;
// returns false when it bailed out.
bool ScanChunk(const Table& base, const ScanSpec& spec, size_t begin,
               size_t end, const ExecContext* ctx,
               std::vector<uint32_t>* rows) {
  rows->reserve(std::min(end - begin, kVectorChunkRows));
  for (size_t b = begin; b < end; b += kVectorChunkRows) {
    if (ctx != nullptr && ctx->InterruptRequested()) return false;
    const size_t e = std::min(b + kVectorChunkRows, end);
    const size_t first = rows->size();
    if (spec.row_filter != nullptr) {
      for (size_t r = b; r < e; ++r) {
        if (spec.row_filter->Test(r)) {
          rows->push_back(static_cast<uint32_t>(r));
        }
      }
    } else {
      for (size_t r = b; r < e; ++r) rows->push_back(static_cast<uint32_t>(r));
    }
    // Predicates prune the selection vector one column at a time: each
    // pass is a tight compare-and-compact loop over a single column's
    // contiguous ids. The surviving set (an AND of all predicates) and
    // its ascending order are exactly the row-at-a-time result.
    auto prune = [rows, first](auto keep) {
      uint32_t* sel = rows->data() + first;
      const size_t size = rows->size() - first;
      size_t kept = 0;
      for (size_t i = 0; i < size; ++i) {
        sel[kept] = sel[i];
        kept += keep(sel[i]);
      }
      rows->resize(first + kept);
    };
    for (const auto& [col, id] : spec.conditions) {
      const TermId* v = base.ColumnData(static_cast<size_t>(col));
      prune([v, id = id](uint32_t r) { return v[r] == id; });
    }
    for (int col : spec.not_null_columns) {
      const TermId* v = base.ColumnData(static_cast<size_t>(col));
      prune([v](uint32_t r) { return v[r] != kNullTermId; });
    }
    for (const auto& [col_a, col_b] : spec.equal_columns) {
      const TermId* va = base.ColumnData(static_cast<size_t>(col_a));
      const TermId* vb = base.ColumnData(static_cast<size_t>(col_b));
      prune([va, vb](uint32_t r) { return va[r] == vb[r]; });
    }
  }
  return true;
}

// FILTER verdicts of one morsel, keyed by the ids the morsel actually
// reads: open addressing over at least twice as many slots as it can
// meet distinct ids, so the memo is sized by the input (capped by the
// dictionary), never by the dictionary alone.
class VerdictMemo {
 public:
  enum : uint8_t { kUnseen = 0, kKeep = 1, kDrop = 2 };

  explicit VerdictMemo(size_t max_ids)
      : mask_(std::bit_ceil(2 * max_ids) - 1),
        ids_(mask_ + 1),
        verdicts_(mask_ + 1, kUnseen) {}

  // The verdict slot of `id`; kUnseen until the caller fills it in.
  uint8_t& Slot(TermId id) {
    size_t i = ((uint64_t{id} * 0x9e3779b97f4a7c15ULL) >> 32) & mask_;
    while (verdicts_[i] != kUnseen && ids_[i] != id) i = (i + 1) & mask_;
    ids_[i] = id;
    return verdicts_[i];
  }

 private:
  size_t mask_;
  std::vector<TermId> ids_;
  std::vector<uint8_t> verdicts_;
};

// 0, 1, ..., t.NumColumns() - 1.
std::vector<int> AllColumns(const Table& t) {
  std::vector<int> cols(t.NumColumns());
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

// Appends `source`'s `rows`, projected to `cols`, to `out` in
// kInterruptCheckRows strides with a CheckInterrupt between strides.
// Returns false when interrupted (partial output; ExecutePlan reports
// why).
bool GatherStrided(const Table& source, const std::vector<int>& cols,
                   const std::vector<uint32_t>& rows, ExecContext* ctx,
                   Table* out) {
  for (size_t i = 0; i < rows.size(); i += kInterruptCheckRows) {
    if (ctx != nullptr && ctx->CheckInterrupt()) return false;
    out->AppendGather(source, cols, rows.data() + i,
                      std::min(rows.size() - i, kInterruptCheckRows));
  }
  return true;
}

// Gathers every morsel's surviving rows of `source`, projected to
// `cols`, into `out`. Morsel order is row order, so the output is the
// ascending survivors; stops early (partial output) on an interrupt.
void GatherMorsels(const Table& source, const std::vector<int>& cols,
                   const std::vector<std::vector<uint32_t>>& survivors,
                   ExecContext* ctx, Table* out) {
  size_t total = 0;
  for (const auto& rows : survivors) total += rows.size();
  out->Reserve(total);
  for (const auto& rows : survivors) {
    if (!GatherStrided(source, cols, rows, ctx, out)) return;
  }
}

}  // namespace

size_t MorselRowsFor(size_t rows, size_t columns, size_t width) {
  size_t m = kMorselTargetBytes /
             (std::max<size_t>(columns, 1) * sizeof(TermId));
  // Several morsels per worker so dynamic claiming can balance skew.
  const size_t per_worker = rows / (4 * std::max<size_t>(width, 1));
  if (per_worker > 0) m = std::min(m, per_worker);
  return std::clamp(m, kMinMorselRows, kMaxMorselRows);
}

FanOut::FanOut(size_t n, size_t columns, bool partition)
    : rows(n),
      partitioned(partition),
      width(partition ? TaskPool::Shared()->ParallelismWidth() : 1),
      rows_per_morsel(width > 1 ? MorselRowsFor(n, columns, width)
                                : std::max<size_t>(n, 1)),
      morsels(std::max<size_t>(
          (n + rows_per_morsel - 1) / rows_per_morsel, 1)) {}

void FanOut::RunOnPool(size_t n, const std::function<void(size_t)>& body) {
  TaskPool::Shared()->ParallelFor(n, body);
}

uint64_t RowKeyHash(const Table& table, size_t row,
                    const std::vector<int>& cols) {
  uint64_t h = kRowHashSeed;
  for (int c : cols) {
    h = HashCombine(h, table.At(row, static_cast<size_t>(c)));
  }
  return h;
}

bool RowKeysEqual(const Table& a, size_t row_a, const std::vector<int>& cols_a,
                  const Table& b, size_t row_b,
                  const std::vector<int>& cols_b) {
  for (size_t i = 0; i < cols_a.size(); ++i) {
    if (a.At(row_a, static_cast<size_t>(cols_a[i])) !=
        b.At(row_b, static_cast<size_t>(cols_b[i]))) {
      return false;
    }
  }
  return true;
}

bool RowKeyHasNull(const Table& t, size_t row, const std::vector<int>& cols) {
  for (int c : cols) {
    if (t.At(row, static_cast<size_t>(c)) == kNullTermId) return true;
  }
  return false;
}

void JoinSharedColumns(const Table& left, const Table& right,
                       std::vector<int>* left_keys,
                       std::vector<int>* right_keys,
                       std::vector<int>* right_only) {
  for (size_t i = 0; i < right.column_names().size(); ++i) {
    int li = left.ColumnIndex(right.column_names()[i]);
    if (li >= 0) {
      left_keys->push_back(li);
      right_keys->push_back(static_cast<int>(i));
    } else {
      right_only->push_back(static_cast<int>(i));
    }
  }
}

Table JoinOutputSchema(const Table& left, const Table& right,
                       const std::vector<int>& right_only) {
  std::vector<std::string> names = left.column_names();
  for (int c : right_only) {
    names.push_back(right.column_names()[static_cast<size_t>(c)]);
  }
  return Table(std::move(names));
}

void EmitJoinedRow(const Table& left, size_t lrow, const Table& right,
                   size_t rrow, const std::vector<int>& right_only,
                   Table* out) {
  std::vector<TermId> row;
  row.reserve(out->NumColumns());
  for (size_t c = 0; c < left.NumColumns(); ++c) row.push_back(left.At(lrow, c));
  for (int c : right_only) {
    row.push_back(right.At(rrow, static_cast<size_t>(c)));
  }
  out->AppendRow(row);
}

bool HashRows(const Table& t, const std::vector<int>& cols,
              const FanOut& fan, const ExecContext* ctx,
              const char* span_label, std::vector<uint64_t>* hashes) {
  hashes->resize(t.NumRows());
  std::atomic<bool> interrupted{false};
  fan.Run(fan.morsels, [&](size_t m) {
    if (interrupted.load(std::memory_order_relaxed)) return;
    ScopedTaskSpan span(ctx, fan.partitioned, span_label, m);
    uint64_t* h = hashes->data();
    // The hash lane is seeded for a whole stride, then each column folds
    // in with one tight pass over its contiguous ids.
    for (size_t b = fan.Begin(m); b < fan.End(m); b += kInterruptCheckRows) {
      if (ctx != nullptr && ctx->InterruptRequested()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      const size_t e = std::min(b + kInterruptCheckRows, fan.End(m));
      std::fill(h + b, h + e, kRowHashSeed);
      for (int c : cols) {
        const TermId* v = t.ColumnData(static_cast<size_t>(c));
        for (size_t r = b; r < e; ++r) h[r] = HashCombine(h[r], v[r]);
      }
    }
  });
  return !interrupted.load(std::memory_order_relaxed);
}

Table ScanSelectProject(const Table& base, const ScanSpec& spec,
                        ExecContext* ctx) {
  const size_t n = base.NumRows();
  if (spec.row_filter != nullptr) {
    S2RDF_CHECK(spec.row_filter->size_bits() == n);
  }
  if (ctx != nullptr) {
    ctx->metrics.input_tuples +=
        spec.row_filter != nullptr ? spec.row_filter->CountSetBits() : n;
  }
  std::vector<std::string> names;
  std::vector<int> proj_cols;
  for (const auto& [col, name] : spec.projections) {
    names.push_back(name);
    proj_cols.push_back(col);
  }

  const FanOut fan(n, base.NumColumns());
  std::vector<std::vector<uint32_t>> keep(fan.morsels);
  std::atomic<bool> interrupted{false};
  fan.Run(fan.morsels, [&](size_t m) {
    if (interrupted.load(std::memory_order_relaxed)) return;
    ScopedTaskSpan span(ctx, fan.partitioned, "scan morsel", m);
    if (!ScanChunk(base, spec, fan.Begin(m), fan.End(m), ctx, &keep[m])) {
      interrupted.store(true, std::memory_order_relaxed);
    }
  });
  Table out(std::move(names));
  if (interrupted.load(std::memory_order_relaxed)) {
    if (ctx != nullptr) ctx->CheckInterrupt();
    return out;  // ExecutePlan reports the interrupt.
  }
  GatherMorsels(base, proj_cols, keep, ctx, &out);
  if (ctx != nullptr) ctx->metrics.intermediate_tuples += out.NumRows();
  return out;
}

Table Filter(const Table& t, const Expr& expr, const rdf::Dictionary& dict,
             ExecContext* ctx) {
  // When every variable the expression references resolves to the same
  // table column, the verdict is a pure function of that column's id:
  // morsels memoize verdicts per distinct id instead of re-decoding and
  // re-parsing the term for every row (the dominant filter cost).
  // Unprojected variables contribute a constant (unbound) and do not
  // break the purity argument.
  int memo_col = -1;
  for (const std::string& var : expr.ReferencedVariables()) {
    int c = t.ColumnIndex(var);
    if (c < 0) continue;
    if (memo_col >= 0 && c != memo_col) {
      memo_col = -1;
      break;
    }
    memo_col = c;
  }
  // A morsel meets at most its row count of distinct ids, and at most
  // every dictionary id plus the null id: every id in the input was
  // encoded before the filter started, so today's size bounds them.
  const size_t dict_ids = memo_col >= 0 ? dict.size() + 1 : 0;

  const FanOut fan(t.NumRows(), t.NumColumns());
  std::vector<std::vector<uint32_t>> keep(fan.morsels);
  std::atomic<bool> interrupted{false};
  fan.Run(fan.morsels, [&](size_t m) {
    if (interrupted.load(std::memory_order_relaxed)) return;
    ScopedTaskSpan span(ctx, fan.partitioned, "filter morsel", m);
    const size_t begin = fan.Begin(m);
    const size_t end = fan.End(m);
    // The evaluator is bound per morsel (cheap: it only resolves column
    // indices); Eval itself is const and dictionary reads take a shared
    // lock, so morsels evaluate concurrently.
    ExprEvaluator eval(expr, t, dict);
    std::vector<uint32_t>& rows = keep[m];
    std::optional<VerdictMemo> memo;
    if (memo_col >= 0 && end > begin) {
      memo.emplace(std::min(end - begin, dict_ids));
    }
    const TermId* v =
        memo_col >= 0 ? t.ColumnData(static_cast<size_t>(memo_col)) : nullptr;
    for (size_t b = begin; b < end; b += kInterruptCheckRows) {
      if (ctx != nullptr && ctx->InterruptRequested()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      const size_t e = std::min(b + kInterruptCheckRows, end);
      for (size_t r = b; r < e; ++r) {
        bool kept;
        if (memo.has_value()) {
          uint8_t& verdict = memo->Slot(v[r]);
          if (verdict == VerdictMemo::kUnseen) {
            verdict = eval.Keep(r) ? VerdictMemo::kKeep : VerdictMemo::kDrop;
          }
          kept = verdict == VerdictMemo::kKeep;
        } else {
          kept = eval.Keep(r);
        }
        if (kept) rows.push_back(static_cast<uint32_t>(r));
      }
    }
  });

  Table out(t.column_names());
  if (interrupted.load(std::memory_order_relaxed)) {
    if (ctx != nullptr) ctx->CheckInterrupt();
    return out;  // ExecutePlan reports the interrupt.
  }
  GatherMorsels(t, AllColumns(t), keep, ctx, &out);
  if (ctx != nullptr) ctx->metrics.intermediate_tuples += out.NumRows();
  return out;
}

Table Distinct(const Table& t, ExecContext* ctx) {
  const size_t n = t.NumRows();
  const std::vector<int> all_cols = AllColumns(t);
  auto interrupted_result = [&] {
    if (ctx != nullptr) {
      ctx->CheckInterrupt();
      ctx->AccountShuffle(n);
    }
    return Table(t.column_names());  // ExecutePlan reports the interrupt.
  };

  const FanOut fan(n, t.NumColumns());
  std::vector<uint64_t> hashes;
  if (!HashRows(t, all_cols, fan, ctx, "distinct hash morsel", &hashes)) {
    return interrupted_result();
  }

  // Hash-partitioned dedup. Equal rows hash equal, so every duplicate set
  // lives wholly inside one partition; each keeps the first occurrence
  // (ascending row scan) of its rows in a flat open-addressing table of
  // row indices. Partitions pick rows by the hash's low bits, slots by
  // its high bits.
  const size_t parts = fan.width;
  std::vector<std::vector<uint32_t>> keep(parts);
  std::atomic<bool> interrupted{false};
  fan.Run(parts, [&](size_t w) {
    ScopedTaskSpan span(ctx, fan.partitioned, "distinct partition", w);
    // This partition's rows, ascending; unpartitioned, every row.
    std::vector<uint32_t> mine;
    if (parts > 1) {
      for (size_t r = 0; r < n; ++r) {
        if ((r % kInterruptCheckRows) == 0 && ctx != nullptr &&
            ctx->InterruptRequested()) {
          interrupted.store(true, std::memory_order_relaxed);
          return;
        }
        if (PartitionOf(hashes[r], parts) == w) {
          mine.push_back(static_cast<uint32_t>(r));
        }
      }
    }
    const size_t count = parts > 1 ? mine.size() : n;
    const size_t mask = std::bit_ceil(2 * count + 1) - 1;
    std::vector<uint32_t> slots(mask + 1, kNoRow);
    for (size_t i = 0; i < count; ++i) {
      if ((i % kInterruptCheckRows) == 0 && ctx != nullptr &&
          ctx->InterruptRequested()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      const uint32_t r = parts > 1 ? mine[i] : static_cast<uint32_t>(i);
      const uint64_t h = hashes[r];
      size_t slot = (h >> 32) & mask;
      bool duplicate = false;
      for (; slots[slot] != kNoRow; slot = (slot + 1) & mask) {
        if (hashes[slots[slot]] == h &&
            RowKeysEqual(t, r, all_cols, t, slots[slot], all_cols)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        slots[slot] = r;
        keep[w].push_back(r);
      }
    }
  });
  if (interrupted.load(std::memory_order_relaxed)) return interrupted_result();

  // The union of partition-local first occurrences is exactly the
  // first-occurrence set, and ascending row order is the emission order.
  std::vector<uint32_t> rows = std::move(keep[0]);
  if (parts > 1) {
    for (size_t w = 1; w < parts; ++w) {
      rows.insert(rows.end(), keep[w].begin(), keep[w].end());
    }
    std::sort(rows.begin(), rows.end());
  }
  Table out(t.column_names());
  out.Reserve(rows.size());
  GatherStrided(t, all_cols, rows, ctx, &out);
  if (ctx != nullptr) {
    ctx->AccountShuffle(n);
    ctx->metrics.intermediate_tuples += out.NumRows();
  }
  return out;
}

Table OrderBy(const Table& t, const std::vector<SortKey>& keys,
              const rdf::Dictionary& dict, ExecContext* ctx) {
  const size_t n = t.NumRows();
  std::vector<std::pair<const TermId*, bool>> key_cols;
  for (const SortKey& key : keys) {
    int c = t.ColumnIndex(key.column);
    if (c >= 0) {
      key_cols.emplace_back(t.ColumnData(static_cast<size_t>(c)),
                            key.ascending);
    }
  }
  const size_t k = key_cols.size();

  // Phase 1 (the dominant cost): decode every sort-key term once per
  // morsel (Dictionary::Decode is shared-lock-safe) into the morsel's
  // own cache, and point each row's key slots at the decoded values.
  // Node-based caches keep those pointers valid; none is merged.
  const FanOut fan(n, k);
  std::vector<std::unordered_map<TermId, Value>> caches(fan.morsels);
  std::vector<const Value*> values(n * k);
  std::atomic<bool> interrupted{false};
  fan.Run(fan.morsels, [&](size_t m) {
    if (interrupted.load(std::memory_order_relaxed)) return;
    ScopedTaskSpan span(ctx, fan.partitioned, "sort decode morsel", m);
    std::unordered_map<TermId, Value>& cache = caches[m];
    for (size_t r = fan.Begin(m); r < fan.End(m); ++r) {
      if (((r - fan.Begin(m)) % kInterruptCheckRows) == 0 && ctx != nullptr &&
          ctx->InterruptRequested()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      for (size_t j = 0; j < k; ++j) {
        const TermId id = key_cols[j].first[r];
        auto [it, inserted] = cache.try_emplace(id);
        if (inserted && id != kNullTermId) {
          it->second = ValueFromCanonicalTerm(dict.Decode(id));
        }
        values[r * k + j] = &it->second;
      }
    }
  });
  if (interrupted.load(std::memory_order_relaxed)) {
    if (ctx != nullptr) ctx->CheckInterrupt();
    return Table(t.column_names());  // ExecutePlan reports the interrupt.
  }

  auto less = [&](uint32_t a, uint32_t b) {
    for (size_t j = 0; j < k; ++j) {
      const auto& [col, asc] = key_cols[j];
      if (col[a] == col[b]) continue;
      bool comparable = true;
      int c = CompareValues(*values[a * k + j], *values[b * k + j],
                            &comparable);
      if (c != 0) return asc ? c < 0 : c > 0;
    }
    return false;
  };

  // Phase 2: each partition stable-sorts one contiguous row range. The
  // sort itself is not interruptible (a comparator that reads the clock
  // would break strict weak ordering); the decode before and the merge
  // and gather after it are.
  const size_t parts = std::min(fan.width, fan.morsels);
  const size_t part_rows = (n + parts - 1) / parts;
  std::vector<std::vector<uint32_t>> sorted(parts);
  fan.Run(parts, [&](size_t p) {
    ScopedTaskSpan span(ctx, fan.partitioned, "sort chunk", p);
    const size_t begin = std::min(n, p * part_rows);
    std::vector<uint32_t>& order = sorted[p];
    order.resize(std::min(n, begin + part_rows) - begin);
    std::iota(order.begin(), order.end(), static_cast<uint32_t>(begin));
    std::stable_sort(order.begin(), order.end(), less);
  });

  // Phase 3: k-way merge. Ranges are contiguous and each is stable-sorted;
  // breaking ties toward the earliest range therefore reproduces one full
  // stable sort.
  std::vector<uint32_t> order;
  if (parts == 1) {
    order = std::move(sorted[0]);
  } else {
    order.reserve(n);
    std::vector<size_t> pos(parts, 0);
    for (size_t emitted = 0; emitted < n; ++emitted) {
      if ((emitted % kInterruptCheckRows) == 0 && ctx != nullptr &&
          ctx->CheckInterrupt()) {
        return Table(t.column_names());  // ExecutePlan reports why.
      }
      size_t best = parts;
      for (size_t p = 0; p < parts; ++p) {
        if (pos[p] >= sorted[p].size()) continue;
        if (best == parts || less(sorted[p][pos[p]], sorted[best][pos[best]])) {
          best = p;
        }
      }
      order.push_back(sorted[best][pos[best]++]);
    }
  }
  Table out(t.column_names());
  out.Reserve(n);
  GatherStrided(t, AllColumns(t), order, ctx, &out);
  return out;
}

Table SortMergeJoin(const Table& left, const Table& right, ExecContext* ctx) {
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  std::vector<int> right_only;
  JoinSharedColumns(left, right, &left_keys, &right_keys, &right_only);
  S2RDF_CHECK(!left_keys.empty());
  Table out = JoinOutputSchema(left, right, right_only);

  if (ctx != nullptr) {
    ctx->metrics.join_comparisons +=
        static_cast<uint64_t>(left.NumRows()) * right.NumRows();
    ctx->AccountShuffle(left.NumRows() + right.NumRows());
  }

  // Sort row indices of both sides by their key tuples.
  auto key_less = [](const Table& t, const std::vector<int>& keys) {
    return [&t, &keys](size_t a, size_t b) {
      for (int c : keys) {
        TermId va = t.At(a, static_cast<size_t>(c));
        TermId vb = t.At(b, static_cast<size_t>(c));
        if (va != vb) return va < vb;
      }
      return false;
    };
  };
  std::vector<size_t> lrows;
  std::vector<size_t> rrows;
  for (size_t r = 0; r < left.NumRows(); ++r) {
    if ((r % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      ctx->metrics.intermediate_tuples += out.NumRows();
      return out;  // Empty; ExecutePlan reports the interrupt.
    }
    if (!RowKeyHasNull(left, r, left_keys)) lrows.push_back(r);
  }
  for (size_t r = 0; r < right.NumRows(); ++r) {
    if ((r % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      ctx->metrics.intermediate_tuples += out.NumRows();
      return out;
    }
    if (!RowKeyHasNull(right, r, right_keys)) rrows.push_back(r);
  }
  std::sort(lrows.begin(), lrows.end(), key_less(left, left_keys));
  std::sort(rrows.begin(), rrows.end(), key_less(right, right_keys));

  auto compare_keys = [&](size_t lrow, size_t rrow) {
    for (size_t i = 0; i < left_keys.size(); ++i) {
      TermId lv = left.At(lrow, static_cast<size_t>(left_keys[i]));
      TermId rv = right.At(rrow, static_cast<size_t>(right_keys[i]));
      if (lv != rv) return lv < rv ? -1 : 1;
    }
    return 0;
  };

  // Merge phase: one check per kInterruptCheckRows merge steps or
  // emitted rows, whichever comes first (equal-key runs can emit a
  // cross product far larger than the step count).
  size_t li = 0;
  size_t ri = 0;
  size_t since_check = 0;
  bool interrupted = false;
  while (li < lrows.size() && ri < rrows.size()) {
    if (++since_check >= kInterruptCheckRows) {
      since_check = 0;
      if (ctx != nullptr && ctx->CheckInterrupt()) {
        interrupted = true;  // Partial output; ExecutePlan reports why.
        break;
      }
    }
    int c = compare_keys(lrows[li], rrows[ri]);
    if (c < 0) {
      ++li;
      continue;
    }
    if (c > 0) {
      ++ri;
      continue;
    }
    // Equal-key runs: cross product of the two runs.
    size_t lend = li;
    while (lend + 1 < lrows.size() &&
           compare_keys(lrows[lend + 1], rrows[ri]) == 0) {
      ++lend;
    }
    size_t rend = ri;
    while (rend + 1 < rrows.size() &&
           compare_keys(lrows[li], rrows[rend + 1]) == 0) {
      ++rend;
    }
    for (size_t l = li; l <= lend && !interrupted; ++l) {
      for (size_t r = ri; r <= rend; ++r) {
        if (++since_check >= kInterruptCheckRows) {
          since_check = 0;
          if (ctx != nullptr && ctx->CheckInterrupt()) {
            interrupted = true;
            break;
          }
        }
        EmitJoinedRow(left, lrows[l], right, rrows[r], right_only, &out);
      }
    }
    if (interrupted) break;
    li = lend + 1;
    ri = rend + 1;
  }
  if (ctx != nullptr) ctx->metrics.intermediate_tuples += out.NumRows();
  return out;
}

Table SemiJoin(const Table& left, int left_col, const Table& right,
               int right_col, ExecContext* ctx) {
  S2RDF_CHECK(left_col >= 0 && static_cast<size_t>(left_col) < left.NumColumns());
  S2RDF_CHECK(right_col >= 0 &&
              static_cast<size_t>(right_col) < right.NumColumns());
  // Metered like every other join: the Fig. 8/Fig. 12 model charges the
  // logical comparison space |L|x|R|, not the hash-accelerated probe
  // count (see exec_context.h). Charged before the build loop so an
  // interrupted run still reports the same work estimate.
  if (ctx != nullptr) {
    ctx->metrics.join_comparisons +=
        static_cast<uint64_t>(left.NumRows()) * right.NumRows();
    ctx->AccountShuffle(left.NumRows() + right.NumRows());
  }
  std::unordered_set<TermId> keys;
  keys.reserve(right.NumRows());
  const std::vector<TermId>& right_vals =
      right.Column(static_cast<size_t>(right_col));
  for (size_t r = 0; r < right_vals.size(); ++r) {
    if ((r % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      Table out(left.column_names());
      return out;  // Empty; ExecutePlan reports the interrupt.
    }
    if (right_vals[r] != kNullTermId) keys.insert(right_vals[r]);
  }
  Table out(left.column_names());
  for (size_t r = 0; r < left.NumRows(); ++r) {
    if ((r % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      break;  // Partial output; ExecutePlan reports the interrupt.
    }
    if (keys.contains(left.At(r, static_cast<size_t>(left_col)))) {
      out.AppendRowFrom(left, r);
    }
  }
  if (ctx != nullptr) ctx->metrics.intermediate_tuples += out.NumRows();
  return out;
}

Table LeftOuterJoin(const Table& left, const Table& right,
                    const Expr* condition, const rdf::Dictionary& dict,
                    ExecContext* ctx) {
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  std::vector<int> right_only;
  JoinSharedColumns(left, right, &left_keys, &right_keys, &right_only);
  Table out = JoinOutputSchema(left, right, right_only);

  if (ctx != nullptr) {
    ctx->metrics.join_comparisons +=
        static_cast<uint64_t>(left.NumRows()) * right.NumRows();
    ctx->AccountShuffle(left.NumRows() + right.NumRows());
  }

  std::unordered_map<uint64_t, std::vector<size_t>> build;
  build.reserve(right.NumRows());
  for (size_t rr = 0; rr < right.NumRows(); ++rr) {
    if ((rr % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      ctx->metrics.intermediate_tuples += out.NumRows();
      return out;  // Empty; ExecutePlan reports the interrupt.
    }
    if (RowKeyHasNull(right, rr, right_keys)) continue;
    build[RowKeyHash(right, rr, right_keys)].push_back(rr);
  }

  for (size_t lr = 0; lr < left.NumRows(); ++lr) {
    if ((lr % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      break;  // Partial output; ExecutePlan reports the interrupt.
    }
    size_t before = out.NumRows();
    if (!left_keys.empty() || right.NumRows() > 0) {
      if (left_keys.empty()) {
        // OPTIONAL with no shared variables: every right row is a
        // candidate (cross semantics).
        for (size_t rr = 0; rr < right.NumRows(); ++rr) {
          EmitJoinedRow(left, lr, right, rr, right_only, &out);
        }
      } else if (!RowKeyHasNull(left, lr, left_keys)) {
        auto it = build.find(RowKeyHash(left, lr, left_keys));
        if (it != build.end()) {
          for (size_t rr : it->second) {
            if (RowKeysEqual(left, lr, left_keys, right, rr, right_keys)) {
              EmitJoinedRow(left, lr, right, rr, right_only, &out);
            }
          }
        }
      }
    }
    // Apply the OPTIONAL-scoped filter on the candidate matches.
    if (condition != nullptr && out.NumRows() > before) {
      ExprEvaluator eval(*condition, out, dict);
      Table kept(out.column_names());
      for (size_t r = 0; r < before; ++r) kept.AppendRowFrom(out, r);
      for (size_t r = before; r < out.NumRows(); ++r) {
        if (eval.Keep(r)) kept.AppendRowFrom(out, r);
      }
      out = std::move(kept);
    }
    if (out.NumRows() == before) {
      // No surviving match: emit the left row padded with nulls.
      std::vector<TermId> row;
      row.reserve(out.NumColumns());
      for (size_t c = 0; c < left.NumColumns(); ++c) {
        row.push_back(left.At(lr, c));
      }
      for (size_t i = 0; i < right_only.size(); ++i) {
        row.push_back(kNullTermId);
      }
      out.AppendRow(row);
    }
  }
  if (ctx != nullptr) ctx->metrics.intermediate_tuples += out.NumRows();
  return out;
}

Table UnionAll(const Table& a, const Table& b, ExecContext* ctx) {
  std::vector<std::string> names = a.column_names();
  for (const std::string& name : b.column_names()) {
    if (a.ColumnIndex(name) < 0) names.push_back(name);
  }
  Table out(names);
  out.Reserve(a.NumRows() + b.NumRows());
  bool interrupted = false;
  for (size_t r = 0; r < a.NumRows(); ++r) {
    if ((r % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      interrupted = true;  // Partial output; ExecutePlan reports why.
      break;
    }
    std::vector<TermId> row;
    row.reserve(names.size());
    for (const std::string& name : names) {
      int c = a.ColumnIndex(name);
      row.push_back(c < 0 ? kNullTermId : a.At(r, static_cast<size_t>(c)));
    }
    out.AppendRow(row);
  }
  for (size_t r = 0; !interrupted && r < b.NumRows(); ++r) {
    if ((r % kInterruptCheckRows) == 0 && ctx != nullptr &&
        ctx->CheckInterrupt()) {
      break;
    }
    std::vector<TermId> row;
    row.reserve(names.size());
    for (const std::string& name : names) {
      int c = b.ColumnIndex(name);
      row.push_back(c < 0 ? kNullTermId : b.At(r, static_cast<size_t>(c)));
    }
    out.AppendRow(row);
  }
  if (ctx != nullptr) ctx->metrics.intermediate_tuples += out.NumRows();
  return out;
}

Table Slice(const Table& t, uint64_t offset, uint64_t limit) {
  Table out(t.column_names());
  if (offset >= t.NumRows()) return out;
  uint64_t end = t.NumRows();
  if (limit != kNoLimit && offset + limit < end) end = offset + limit;
  for (uint64_t r = offset; r < end; ++r) {
    out.AppendRowFrom(t, static_cast<size_t>(r));
  }
  return out;
}

Table Project(const Table& t, const std::vector<std::string>& columns) {
  // Column store: projection is column selection, so copy whole
  // columns rather than assembling rows one at a time.
  std::vector<std::vector<TermId>> cols;
  cols.reserve(columns.size());
  for (const std::string& name : columns) {
    const int c = t.ColumnIndex(name);
    if (c < 0) {
      cols.emplace_back(t.NumRows(), kNullTermId);
    } else {
      cols.push_back(t.Column(static_cast<size_t>(c)));
    }
  }
  Table out(columns);
  out.AdoptColumns(std::move(cols), t.NumRows());
  return out;
}

}  // namespace s2rdf::engine
