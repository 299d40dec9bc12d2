// The radix-partitioned hash join: the executable counterpart of the
// ExecContext shuffle model. The shuffle write is itself morsel-parallel
// — each morsel hashes its rows column-at-a-time and scatters them into
// per-morsel partition stripes, which concatenate into per-partition row
// lists in morsel order, without locks. Partitions then build-and-probe
// independently, building on the smaller input with a flat open-
// addressing chain table. Matches travel as packed
// (left_row << 32 | right_row) pairs; the gather merges the partitions
// back into the canonical order and materializes the output column-wise.
//
// Below kParallelRowThreshold input rows the same code runs inline with
// one morsel per side and one partition, so the stripes, the partition
// concatenation and the merge all degenerate to moves.

#include <algorithm>
#include <atomic>
#include <bit>
#include <vector>

#include "common/hash.h"
#include "engine/operators.h"

namespace s2rdf::engine {

namespace {

inline constexpr uint32_t kNoEntry = 0xffffffffu;
inline constexpr uint64_t kLeftRowMask = 0xffffffff00000000ull;

// Chain-table bucket of a row hash. Partitions pick rows by the hash's
// low bits (PartitionOf), so buckets take its high bits.
size_t Bucket(uint64_t hash, uint64_t mask) { return (hash >> 32) & mask; }

// One radix-partitioned join input: per-row key hashes (RowKeyHash's
// exact value) plus, per partition, the non-null-key row indices in
// ascending order.
struct RadixSide {
  std::vector<uint64_t> hashes;
  std::vector<std::vector<uint32_t>> parts;
};

// Shuffle write for one side into `p` partitions. Morsels are contiguous
// ascending row ranges, so concatenating their stripes in morsel order
// keeps every partition ascending. Returns false when a morsel observed
// an interrupt (the caller records the reason).
bool RadixPartition(const Table& t, const std::vector<int>& keys,
                    const FanOut& fan, size_t p, const ExecContext* ctx,
                    const char* span_label, RadixSide* side) {
  side->hashes.resize(t.NumRows());
  std::vector<std::vector<std::vector<uint32_t>>> stripes(fan.morsels);
  std::atomic<bool> interrupted{false};
  fan.Run(fan.morsels, [&](size_t m) {
    if (interrupted.load(std::memory_order_relaxed)) return;
    ScopedTaskSpan span(ctx, fan.partitioned, span_label, m);
    const size_t begin = fan.Begin(m);
    const size_t end = fan.End(m);
    std::vector<std::vector<uint32_t>>& local = stripes[m];
    local.resize(p);
    uint64_t* h = side->hashes.data();
    std::vector<uint8_t> null_row(std::min(end - begin, kInterruptCheckRows));
    for (size_t b = begin; b < end; b += kInterruptCheckRows) {
      if (ctx != nullptr && ctx->InterruptRequested()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      const size_t e = std::min(b + kInterruptCheckRows, end);
      std::fill(h + b, h + e, kRowHashSeed);
      std::fill(null_row.begin(), null_row.begin() + (e - b), 0);
      for (int c : keys) {
        const TermId* v = t.ColumnData(static_cast<size_t>(c));
        for (size_t r = b; r < e; ++r) h[r] = HashCombine(h[r], v[r]);
        for (size_t r = b; r < e; ++r) null_row[r - b] |= v[r] == kNullTermId;
      }
      for (size_t r = b; r < e; ++r) {
        if (!null_row[r - b]) {
          local[PartitionOf(h[r], p)].push_back(static_cast<uint32_t>(r));
        }
      }
    }
  });
  if (interrupted.load(std::memory_order_relaxed)) return false;

  if (fan.morsels == 1) {
    side->parts = std::move(stripes[0]);
    return true;
  }
  side->parts.assign(p, {});
  fan.Run(p, [&](size_t part) {
    size_t total = 0;
    for (const auto& stripe : stripes) total += stripe[part].size();
    std::vector<uint32_t>& dst = side->parts[part];
    dst.reserve(total);
    for (const auto& stripe : stripes) {
      dst.insert(dst.end(), stripe[part].begin(), stripe[part].end());
    }
  });
  return true;
}

// No shared columns: every left row pairs with every right row, left rows
// in input order.
Table CrossProduct(const Table& left, const Table& right,
                   const std::vector<int>& right_only, ExecContext* ctx) {
  Table out = JoinOutputSchema(left, right, right_only);
  size_t since_check = 0;
  for (size_t lr = 0; lr < left.NumRows(); ++lr) {
    for (size_t rr = 0; rr < right.NumRows(); ++rr) {
      if (++since_check >= kInterruptCheckRows) {
        since_check = 0;
        if (ctx != nullptr && ctx->CheckInterrupt()) {
          // Partial output; ExecutePlan reports the interrupt.
          ctx->metrics.intermediate_tuples += out.NumRows();
          return out;
        }
      }
      EmitJoinedRow(left, lr, right, rr, right_only, &out);
    }
  }
  if (ctx != nullptr) ctx->metrics.intermediate_tuples += out.NumRows();
  return out;
}

}  // namespace

Table HashJoin(const Table& left, const Table& right, ExecContext* ctx) {
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  std::vector<int> right_only;
  JoinSharedColumns(left, right, &left_keys, &right_keys, &right_only);

  // The logical comparison space and the repartition shuffle, charged
  // before any work so an interrupted run reports the same estimate.
  if (ctx != nullptr) {
    ctx->metrics.join_comparisons +=
        static_cast<uint64_t>(left.NumRows()) * right.NumRows();
    ctx->AccountShuffle(left.NumRows() + right.NumRows());
  }
  if (left_keys.empty()) return CrossProduct(left, right, right_only, ctx);

  // Every interrupted path below funnels through this: record the reason
  // on the owning thread and return an empty table, so ExecutePlan
  // surfaces the cancelled/expired Status.
  auto interrupted_result = [&]() {
    if (ctx != nullptr) ctx->CheckInterrupt();
    return JoinOutputSchema(left, right, right_only);
  };

  // One fan-out decision for both inputs: they must share a partition
  // count. The count is an execution knob (cache-sized build tables,
  // enough tasks to balance skew), decoupled from the simulated cluster
  // width ctx->num_partitions that the shuffle meter models.
  const bool partition =
      left.NumRows() + right.NumRows() >= kParallelRowThreshold;
  const FanOut left_fan(left.NumRows(), left_keys.size(), partition);
  const FanOut right_fan(right.NumRows(), right_keys.size(), partition);
  const FanOut& fan = left_fan;
  const size_t p =
      fan.width == 1 ? 1 : std::clamp<size_t>(fan.width * 4, 8, 64);

  // Phase 1: radix shuffle of both sides.
  RadixSide left_side;
  RadixSide right_side;
  if (!RadixPartition(left, left_keys, left_fan, p, ctx,
                      "shuffle morsel (left)", &left_side) ||
      !RadixPartition(right, right_keys, right_fan, p, ctx,
                      "shuffle morsel (right)", &right_side)) {
    return interrupted_result();
  }

  // Phase 2: per-partition build + probe, building on the smaller input.
  // The build table is a flat chain table over the partition's rows:
  // heads[bucket] / next[i] index into the ascending partition row list,
  // inserted in descending order so every chain ends up ascending.
  const bool build_left = left.NumRows() < right.NumRows();
  const Table& build_t = build_left ? left : right;
  const Table& probe_t = build_left ? right : left;
  const std::vector<int>& build_keys = build_left ? left_keys : right_keys;
  const std::vector<int>& probe_keys = build_left ? right_keys : left_keys;
  const RadixSide& build_s = build_left ? left_side : right_side;
  const RadixSide& probe_s = build_left ? right_side : left_side;

  std::vector<std::vector<uint64_t>> matches(p);
  std::atomic<bool> interrupted{false};
  fan.Run(p, [&](size_t part) {
    if (interrupted.load(std::memory_order_relaxed)) return;
    ScopedTaskSpan span(ctx, fan.partitioned, "join partition", part);
    const std::vector<uint32_t>& brows = build_s.parts[part];
    const std::vector<uint32_t>& prows = probe_s.parts[part];
    if (brows.empty() || prows.empty()) return;
    const uint64_t mask = std::bit_ceil(brows.size() * 2) - 1;
    std::vector<uint32_t> heads(mask + 1, kNoEntry);
    std::vector<uint32_t> next(brows.size());
    for (size_t i = brows.size(); i-- > 0;) {
      const size_t b = Bucket(build_s.hashes[brows[i]], mask);
      next[i] = heads[b];
      heads[b] = static_cast<uint32_t>(i);
    }
    // Single shared join variable is the common case; compare the two
    // key columns' raw ids directly instead of the generic row walk.
    const bool single = build_keys.size() == 1;
    const TermId* bcol =
        single ? build_t.ColumnData(static_cast<size_t>(build_keys[0]))
               : nullptr;
    const TermId* pcol =
        single ? probe_t.ColumnData(static_cast<size_t>(probe_keys[0]))
               : nullptr;
    std::vector<uint64_t>& out = matches[part];
    for (size_t i = 0; i < prows.size(); ++i) {
      if ((i % kInterruptCheckRows) == 0 && ctx != nullptr &&
          ctx->InterruptRequested()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      const uint32_t pr = prows[i];
      for (uint32_t idx = heads[Bucket(probe_s.hashes[pr], mask)];
           idx != kNoEntry; idx = next[idx]) {
        const uint32_t br = brows[idx];
        const bool eq = single ? bcol[br] == pcol[pr]
                               : RowKeysEqual(build_t, br, build_keys,
                                              probe_t, pr, probe_keys);
        if (!eq) continue;
        const uint64_t lr = build_left ? br : pr;
        const uint64_t rr = build_left ? pr : br;
        out.push_back(lr << 32 | rr);
      }
    }
    // Probe order is ascending probe rows with ascending chain matches.
    // With build=right that is already canonical (left asc, right asc per
    // left row); with build=left the pairs arrived (right asc, left asc)
    // and the packed sort restores the canonical order.
    if (build_left) std::sort(out.begin(), out.end());
  });
  if (interrupted.load(std::memory_order_relaxed)) {
    return interrupted_result();
  }

  // Phase 3: canonical merge. A left row's hash pins it to exactly one
  // partition, so runs of equal left row live wholly inside one partition
  // and merging by packed value k-way-merges the partitions back into the
  // canonical sequence.
  std::vector<uint64_t> ordered;
  if (p == 1) {
    ordered = std::move(matches[0]);
  } else {
    size_t total = 0;
    for (const auto& m : matches) total += m.size();
    ordered.reserve(total);
    std::vector<size_t> pos(p, 0);
    size_t since_check = 0;
    while (ordered.size() < total) {
      size_t best = p;
      for (size_t part = 0; part < p; ++part) {
        if (pos[part] >= matches[part].size()) continue;
        if (best == p ||
            matches[part][pos[part]] < matches[best][pos[best]]) {
          best = part;
        }
      }
      const std::vector<uint64_t>& vec = matches[best];
      size_t i = pos[best];
      const uint64_t lr_key = vec[i] & kLeftRowMask;
      while (i < vec.size() && (vec[i] & kLeftRowMask) == lr_key) {
        if (++since_check >= kInterruptCheckRows) {
          since_check = 0;
          if (ctx != nullptr && ctx->CheckInterrupt()) {
            return interrupted_result();
          }
        }
        ordered.push_back(vec[i++]);
      }
      pos[best] = i;
    }
  }

  // Phase 4: columnar materialization — one gather task per output
  // column instead of row-at-a-time appends.
  const size_t total = ordered.size();
  const size_t left_w = left.NumColumns();
  std::vector<std::vector<TermId>> cols(left_w + right_only.size());
  fan.Run(cols.size(), [&](size_t c) {
    if (interrupted.load(std::memory_order_relaxed)) return;
    const bool from_left = c < left_w;
    const TermId* src =
        from_left
            ? left.ColumnData(c)
            : right.ColumnData(static_cast<size_t>(right_only[c - left_w]));
    std::vector<TermId>& dst = cols[c];
    dst.resize(total);
    for (size_t i = 0; i < total; ++i) {
      if ((i % kInterruptCheckRows) == 0 && ctx != nullptr &&
          ctx->InterruptRequested()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      dst[i] = src[from_left ? ordered[i] >> 32
                             : ordered[i] & 0xffffffffull];
    }
  });
  if (interrupted.load(std::memory_order_relaxed)) {
    return interrupted_result();
  }
  Table out = JoinOutputSchema(left, right, right_only);
  out.AdoptColumns(std::move(cols), total);
  if (ctx != nullptr) ctx->metrics.intermediate_tuples += out.NumRows();
  return out;
}

}  // namespace s2rdf::engine
