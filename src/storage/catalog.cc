#include "storage/catalog.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/task_pool.h"
#include "storage/table_file.h"

namespace s2rdf::storage {

namespace {

// Transient-read retry policy: kTransientRetries retries after the first
// attempt, exponential backoff from kRetryBackoffMs.
constexpr int kTransientRetries = 3;
constexpr int kRetryBackoffMs = 1;

// A commit reads its segment and manifest back at most this many bytes
// at a time, so it never holds a second copy of a large segment.
constexpr uint64_t kReadBackChunkBytes = 1 << 20;

constexpr char kCurrentFile[] = "CURRENT";
constexpr char kManifestPrefix[] = "manifest-";
constexpr char kManifestSuffix[] = ".tsv";
constexpr char kChecksumPrefix[] = "# checksum=";
constexpr char kGenerationHeader[] = "# s2rdf-manifest generation=";
constexpr char kSegmentHeader[] = "# s2rdf-segment ";
constexpr char kDictionaryHeader[] = "# s2rdf-dictionary ";
// Every directive starts so; one this build does not know fails the load.
constexpr char kDirectivePrefix[] = "# s2rdf-";
constexpr char kSegmentPrefix[] = "segment-";
constexpr char kSegmentSuffix[] = ".s2seg";

std::string ManifestFileName(uint64_t generation) {
  return kManifestPrefix + std::to_string(generation) + kManifestSuffix;
}

// "<prefix><digits><suffix>" -> the number; false for anything else.
bool ParseNumberedFile(const std::string& filename, std::string_view prefix,
                       std::string_view suffix, uint64_t* gen) {
  if (filename.size() <= prefix.size() + suffix.size() ||
      filename.compare(0, prefix.size(), prefix) != 0 ||
      filename.compare(filename.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
    return false;
  }
  std::string digits = filename.substr(
      prefix.size(), filename.size() - prefix.size() - suffix.size());
  if (digits.empty()) return false;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  *gen = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

bool ParseManifestGeneration(const std::string& filename, uint64_t* gen) {
  return ParseNumberedFile(filename, kManifestPrefix, kManifestSuffix, gen);
}

// True, dropping the prefix from *line, when *line is `prefix` followed
// by something.
bool ConsumePrefix(std::string_view* line, std::string_view prefix) {
  if (line->size() <= prefix.size() || !StartsWith(*line, prefix)) {
    return false;
  }
  line->remove_prefix(prefix.size());
  return true;
}

// Parses `text` as exactly `n` tab-separated non-negative integers.
bool ParseNumbers(std::string_view text, size_t n,
                  std::vector<uint64_t>* numbers) {
  numbers->clear();
  for (const std::string& field : StrSplit(text, '\t')) {
    long long value = 0;
    if (!ParseInt64(field, &value) || value < 0) return false;
    numbers->push_back(static_cast<uint64_t>(value));
  }
  return numbers->size() == n;
}

// True when `rows` can name the rows a commit inserted into `table`: at
// least one, ascending, every index a row of `table`.
bool ValidInsertedRows(const std::vector<uint32_t>& rows,
                       const rdf::Table& table) {
  if (rows.empty() || rows.back() >= table.NumRows()) return false;
  return std::adjacent_find(rows.begin(), rows.end(),
                            std::greater_equal<uint32_t>()) == rows.end();
}

bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kIoError;
}

// A manifest that verifies but carries a directive this build does not
// know (AdoptManifest): it is intact, not corrupt, so no older
// generation may stand in for it.
bool IsUnknownDirective(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition;
}

// Test-installable replacement for the backoff sleep (satisfies the
// lock-free read on the hot path: one relaxed load when unset).
std::atomic<void (*)(std::chrono::milliseconds)> g_retry_sleep_fn{nullptr};

// Full-jitter exponential backoff: uniform in [base, 2*base] with
// base = kRetryBackoffMs << attempt. The jitter seed derives from the
// injectable clock (common/clock.h), so SetClockForTest makes delays
// reproducible while real processes retrying the same file decorrelate.
void Backoff(int attempt) {
  uint64_t base = static_cast<uint64_t>(kRetryBackoffMs) << attempt;
  SplitMix64 rng(static_cast<uint64_t>(
      MonotonicNow().time_since_epoch().count()));
  auto delay = std::chrono::milliseconds(base + rng.Uniform(base + 1));
  void (*fn)(std::chrono::milliseconds) =
      g_retry_sleep_fn.load(std::memory_order_relaxed);
  if (fn != nullptr) {
    fn(delay);
  } else {
    std::this_thread::sleep_for(delay);
  }
}

}  // namespace

// One segment file of the generation the catalog serves. Every state
// built while the segment is live holds it; once a commit drops the
// segment (`dropped`), the file is removed when the last holder releases
// it — the catalog's own state included.
struct SegmentFile {
  SegmentFile(Env* env, std::string path, uint64_t bytes)
      : env(env), path(std::move(path)), bytes(bytes) {}
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;
  ~SegmentFile() {
    // Best effort: a crash first leaves debris Recover() removes.
    if (dropped.load()) (void)env->RemoveFile(path);
  }

  Env* const env;
  const std::string path;
  const uint64_t bytes;
  std::atomic<bool> dropped{false};
};

void Catalog::SetRetrySleepFnForTest(void (*fn)(std::chrono::milliseconds)) {
  g_retry_sleep_fn.store(fn, std::memory_order_relaxed);
}

Catalog::Catalog(std::string dir, Env* env)
    : dir_(std::move(dir)), env_(env != nullptr ? env : Env::Default()) {
  live_.catalog = this;
  if (!dir_.empty()) {
    // Best-effort; the first commit reports real errors.
    (void)env_->MakeDirs(dir_);
  }
}

std::string Catalog::SegmentPath(uint64_t segment) const {
  return dir_ + "/" + kSegmentPrefix + std::to_string(segment) +
         kSegmentSuffix;
}

template <typename ReadFn>
Status Catalog::Retrying(const ReadFn& read) const {
  // Only transient (kIoError) failures are retried; corruption, missing
  // files and truncated ranges are final.
  Status status;
  for (int attempt = 0; attempt <= kTransientRetries; ++attempt) {
    if (attempt > 0) {
      read_retries_.fetch_add(1, std::memory_order_relaxed);
      Backoff(attempt - 1);
    }
    status = read();
    if (status.ok() || !IsTransient(status)) return status;
  }
  return status;
}

Status Catalog::ReadFileRetrying(const std::string& path,
                                 std::string* data) const {
  return Retrying([&] { return env_->ReadFile(path, data); });
}

Status Catalog::ReadBlob(const BlobLocation& at, std::string* blob) const {
  const std::string path = SegmentPath(at.segment);
  return Retrying(
      [&] { return env_->ReadFileRange(path, at.offset, at.bytes, blob); });
}

Status Catalog::VerifyWritten(const std::string& path,
                              std::string_view written) const {
  std::string chunk;
  for (uint64_t offset = 0; offset < written.size();
       offset += kReadBackChunkBytes) {
    const uint64_t bytes =
        std::min<uint64_t>(kReadBackChunkBytes, written.size() - offset);
    S2RDF_RETURN_IF_ERROR(Retrying(
        [&] { return env_->ReadFileRange(path, offset, bytes, &chunk); }));
    if (written.substr(offset, bytes) != chunk) {
      return InvalidArgumentError("write failed read-back verification: " +
                                  path);
    }
  }
  return Status::Ok();
}

void Catalog::Stage(TableStats stats,
                    std::shared_ptr<const rdf::Table> table) {
  const std::string name = stats.name;
  MutexLock lock(&mu_);
  // A fresh write supersedes old corruption.
  if (table != nullptr) live_.quarantined.erase(name);
  EvictFromMemoryLocked(name);
  SetHandleLocked(name, std::move(table));
  live_.stats[name] = std::move(stats);
  if (!dir_.empty()) staged_[name] = ++stage_seq_;
  state_.reset();
}

Status Catalog::Put(const std::string& name, rdf::Table table,
                    double selectivity) {
  TableStats stats;
  stats.name = name;
  stats.rows = table.NumRows();
  stats.selectivity = selectivity;
  stats.materialized = true;
  Stage(std::move(stats), std::make_shared<const rdf::Table>(std::move(table)));
  return Status::Ok();
}

void Catalog::PutStatsOnly(const std::string& name, uint64_t rows,
                           double selectivity) {
  TableStats stats;
  stats.name = name;
  stats.rows = rows;
  stats.selectivity = selectivity;
  Stage(std::move(stats), nullptr);
}

std::shared_ptr<const CatalogState> Catalog::State() const {
  MutexLock lock(&mu_);
  if (state_ == nullptr) state_ = std::make_shared<const CatalogState>(live_);
  return state_;
}

std::optional<TableStats> Catalog::GetStats(const std::string& name) const {
  MutexLock lock(&mu_);
  const TableStats* stats = live_.Find(name);
  if (stats == nullptr) return std::nullopt;
  return *stats;
}

void Catalog::NoteDegradedQuery() const {
  queries_degraded_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Catalog::read_retries() const {
  return read_retries_.load(std::memory_order_relaxed);
}

uint64_t Catalog::corruptions_detected() const {
  return corruptions_detected_.load(std::memory_order_relaxed);
}

uint64_t Catalog::queries_degraded() const {
  return queries_degraded_.load(std::memory_order_relaxed);
}

uint64_t Catalog::quarantined_tables() const {
  return quarantined_count_.load(std::memory_order_relaxed);
}

void Catalog::QuarantineLocked(const std::string& name) {
  if (!live_.quarantined.insert(name).second) return;
  state_.reset();
  quarantined_count_.fetch_add(1, std::memory_order_relaxed);
  corruptions_detected_.fetch_add(1, std::memory_order_relaxed);
  EvictFromMemoryLocked(name);
  // Corruption is rare and operator-facing: worth a line even though we
  // hold mu_ (the sink must not call back into the catalog).
  LogEvent(LogLevel::kError, "table_quarantined", {{"table", name}});
}

StatusOr<std::shared_ptr<const rdf::Table>> Catalog::GetTable(
    const CatalogState& state, const std::string& name) {
  const TableStats* stats = state.Find(name);
  if (stats == nullptr || !stats->materialized) {
    return NotFoundError("table not materialized: " + name);
  }
  if (state.quarantined.contains(name)) {
    return FailedPreconditionError("table quarantined: " + name);
  }
  auto handle = state.handles.find(name);
  if (handle != state.handles.end()) return handle->second;
  const Extents& at = stats->extents;
  {
    MutexLock lock(&mu_);
    auto cached = cache_.find(name);
    if (cached != cache_.end() && cached->second.at == at) {
      lru_.splice(lru_.end(), lru_, cached->second.lru);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return cached->second.table;
    }
  }
  // Read only the table's byte ranges, outside the lock so distinct
  // tables page in concurrently; `state` keeps their segments on disk.
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  StatusOr<rdf::Table> table = ReadTable(at);
  MutexLock lock(&mu_);
  // Only the extents the catalog serves now are quarantined or cached: an
  // older state's are superseded either way.
  const TableStats* current = live_.Find(name);
  const bool is_current =
      current != nullptr && current->materialized && current->extents == at;
  if (!table.ok()) {
    // Corrupt or missing on disk: quarantine so future queries degrade
    // at selection time instead of re-reading a broken blob.
    if (is_current && !IsTransient(table.status())) QuarantineLocked(name);
    return table.status();
  }
  auto owned = std::make_shared<const rdf::Table>(std::move(*table));
  if (!is_current) return owned;
  auto cached = cache_.find(name);
  if (cached != cache_.end() && cached->second.at == at) {
    return cached->second.table;  // Lost a race.
  }
  CacheInsertLocked(name, owned, at);
  return owned;
}

StatusOr<std::shared_ptr<const rdf::Table>> Catalog::GetTable(
    const std::string& name) {
  const std::shared_ptr<const CatalogState> state = State();
  return GetTable(*state, name);
}

StatusOr<rdf::Table> Catalog::ReadTable(const Extents& extents) const {
  if (extents.empty()) return NotFoundError("table has no extent on disk");
  std::string blob;
  S2RDF_RETURN_IF_ERROR(ReadBlob(extents[0], &blob));
  S2RDF_ASSIGN_OR_RETURN(rdf::Table table, DeserializeTable(blob));
  for (size_t e = 1; e < extents.size(); ++e) {
    S2RDF_RETURN_IF_ERROR(ReadBlob(extents[e], &blob));
    S2RDF_ASSIGN_OR_RETURN(rdf::Table patch, DeserializeTable(blob));
    S2RDF_RETURN_IF_ERROR(ApplyPatch(patch, &table));
  }
  return table;
}

void Catalog::CacheInsertLocked(const std::string& name,
                                std::shared_ptr<const rdf::Table> table,
                                Extents at) {
  EvictFromMemoryLocked(name);  // Replace any stale copy.
  cached_bytes_ += table->ApproxBytes();
  cache_[name] = {std::move(table), std::move(at),
                  lru_.insert(lru_.end(), name)};
}

void Catalog::EvictFromMemoryLocked(const std::string& name) {
  auto it = cache_.find(name);
  if (it == cache_.end()) return;
  cached_bytes_ -= it->second.table->ApproxBytes();
  lru_.erase(it->second.lru);
  cache_.erase(it);
}

void Catalog::SetHandleLocked(const std::string& name,
                              std::shared_ptr<const rdf::Table> table) {
  auto it = live_.handles.find(name);
  if (it != live_.handles.end()) {
    cached_bytes_ -= it->second->ApproxBytes();
    live_.handles.erase(it);
  }
  if (table == nullptr) return;
  cached_bytes_ += table->ApproxBytes();
  live_.handles.emplace(name, std::move(table));
}

void Catalog::EvictFromMemory(const std::string& name) {
  MutexLock lock(&mu_);
  EvictFromMemoryLocked(name);
}

void Catalog::SetMemoryBudget(uint64_t bytes) {
  MutexLock lock(&mu_);
  memory_budget_ = bytes;
}

uint64_t Catalog::CachedBytes() const {
  MutexLock lock(&mu_);
  return cached_bytes_;
}

size_t Catalog::EvictToBudget() {
  MutexLock lock(&mu_);
  if (memory_budget_ == 0 || dir_.empty()) return 0;
  size_t evicted = 0;
  while (cached_bytes_ > memory_budget_ && !lru_.empty()) {
    EvictFromMemoryLocked(lru_.front());
    ++evicted;
  }
  cache_evictions_.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

uint64_t Catalog::TotalTuples() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& [name, stats] : live_.stats) {
    if (stats.materialized) total += stats.rows;
  }
  return total;
}

uint64_t Catalog::TotalBytes() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& [name, stats] : live_.stats) total += stats.bytes;
  return total;
}

size_t Catalog::NumMaterializedTables() const {
  MutexLock lock(&mu_);
  size_t count = 0;
  for (const auto& [name, stats] : live_.stats) {
    if (stats.materialized) ++count;
  }
  return count;
}

std::vector<const TableStats*> Catalog::AllStats() const {
  // The catalog keeps this state until its next change.
  const std::shared_ptr<const CatalogState> state = State();
  std::vector<const TableStats*> out;
  out.reserve(state->stats.size());
  for (const auto& [name, stats] : state->stats) out.push_back(&stats);
  return out;
}

std::string Catalog::RenderManifest(const CatalogState& view) {
  std::string out = kGenerationHeader + std::to_string(view.generation) + "\n";
  out += "# name\trows\tselectivity\tbytes\tmaterialized\tsegment\toffset "
         "(the base blob), then segment\toffset\tbytes per patch\n";
  // The live segments' sizes: the next commit's space rule needs them.
  for (const auto& [segment, file] : view.segments) {
    out += kSegmentHeader + std::to_string(segment) + "\t" +
           std::to_string(file->bytes) + "\n";
  }
  // The dictionary blobs in id order: their concatenated terms are the
  // generation's dictionary.
  for (const BlobLocation& at : view.dictionary_blobs) {
    out += kDictionaryHeader + std::to_string(at.segment) + "\t" +
           std::to_string(at.offset) + "\t" + std::to_string(at.bytes) + "\n";
  }
  for (const auto& [name, entry] : view.stats) {
    const BlobLocation base =
        entry.extents.empty() ? BlobLocation{} : entry.extents[0];
    char line[512];
    std::snprintf(line, sizeof(line), "%s\t%llu\t%.17g\t%llu\t%d\t%llu\t%llu",
                  name.c_str(), static_cast<unsigned long long>(entry.rows),
                  entry.selectivity,
                  static_cast<unsigned long long>(base.bytes),
                  entry.materialized ? 1 : 0,
                  static_cast<unsigned long long>(base.segment),
                  static_cast<unsigned long long>(base.offset));
    out += line;
    for (size_t e = 1; e < entry.extents.size(); ++e) {
      const BlobLocation& at = entry.extents[e];
      out += "\t" + std::to_string(at.segment) + "\t" +
             std::to_string(at.offset) + "\t" + std::to_string(at.bytes);
    }
    out += "\n";
  }
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(out)));
  out += kChecksumPrefix + std::string(checksum) + "\n";
  return out;
}

void Catalog::PruneOldManifests(uint64_t gen) const {
  // Prune generations older than the previous one (kept as the fallback
  // link of the chain). Best effort: failure leaves harmless files.
  StatusOr<std::vector<std::string>> files = env_->ListDir(dir_);
  if (!files.ok()) return;
  for (const std::string& file : *files) {
    uint64_t g = 0;
    if (ParseManifestGeneration(file, &g) && g + 1 < gen) {
      (void)env_->RemoveFile(dir_ + "/" + file);
    }
  }
}

Status Catalog::SaveManifest() {
  if (dir_.empty()) {
    return FailedPreconditionError("in-memory catalog has no manifest");
  }
  return CommitBatch({});
}

Status Catalog::CommitBatch(std::vector<TableUpdate> updates,
                            const CommitOptions& options,
                            CommitReport* report) {
  const bool on_disk = !dir_.empty();
  // One table this commit writes: its next stats entry; the table it
  // stores (null when the entry keeps its extents or has none) and, from
  // a batch update, the rows of that table its committed version lacks;
  // whether it is written as a patch; and the stage sequence number of
  // the staged version it writes (0 for a batch update).
  struct Pending {
    TableStats stats;
    std::shared_ptr<const rdf::Table> table;
    std::vector<uint32_t> new_rows;
    bool patched = false;
    uint64_t staged_seq = 0;
  };
  std::map<std::string, Pending> pending;
  // Phase 1 — under one lock hold, take the published state and gather
  // everything staged. The batch's updates apply over that state outside
  // the lock, where the generation's whole view is copied from it.
  std::shared_ptr<const CatalogState> current;
  {
    MutexLock lock(&mu_);
    if (state_ == nullptr) state_ = std::make_shared<const CatalogState>(live_);
    current = state_;
    for (const auto& [name, seq] : staged_) {
      Pending staged{live_.stats.at(name), nullptr, {}, false, seq};
      if (staged.stats.materialized) {
        auto handle = live_.handles.find(name);
        if (handle == live_.handles.end()) {
          return InternalError("staged table not cached: " + name);
        }
        staged.table = handle->second;
      }
      pending[name] = std::move(staged);
    }
  }
  CatalogState next;  // The generation's whole view.
  if (on_disk) next = *current;
  next.generation = current->generation + 1;
  const uint64_t gen = next.generation;
  for (TableUpdate& update : updates) {
    Pending entry;
    entry.stats.name = update.name;
    entry.stats.selectivity = update.selectivity;
    entry.stats.rows = update.rows;
    if (update.table.has_value()) {
      entry.stats.rows = update.table->NumRows();
      entry.stats.materialized = true;
      entry.table =
          std::make_shared<const rdf::Table>(std::move(*update.table));
      entry.new_rows = std::move(update.new_rows);
    } else if (update.retain_table) {
      // Stats-only amendment: the table keeps its bytes — its staged
      // copy, or its committed extents where they lie.
      auto prior = pending.find(update.name);
      const TableStats* committed = current->Find(update.name);
      if (prior != pending.end() && prior->second.table != nullptr) {
        entry.stats.materialized = true;
        entry.table = prior->second.table;
      } else if (committed != nullptr && committed->materialized) {
        entry.stats.materialized = true;
        entry.stats.bytes = committed->bytes;
        entry.stats.extents = committed->extents;
      }
    }
    pending[update.name] = std::move(entry);
  }

  // Phase 2 — lay out this generation's segment: every table blob (whole
  // or patch) in name order (deterministic contents), then the
  // dictionary blob, then the live extents copied forward from the
  // segments the space rule compacts. The segment is sized once and each
  // table blob written in place: planned (one counting pass per column)
  // and written across the shared TaskPool, the calling thread included.
  std::string segment;
  // Extents copied forward: the table, its place in the chain, the old
  // and the new location.
  struct Move {
    std::string name;
    size_t extent;
    BlobLocation from;
    BlobLocation to;
  };
  std::vector<Move> moved;
  std::vector<uint64_t> dropped;  // Segments.
  if (on_disk) {
    // One table blob: the committed version it patches (null when it is
    // written whole) and how many of that version's extents it keeps.
    struct Blob {
      Pending* entry;
      const TableStats* base = nullptr;
      size_t keep = 0;
      rdf::Table patch;
      TableBlobPlan plan;
    };
    std::vector<Blob> blobs;
    // Per older segment, the byte range covering every patch a plan may
    // absorb there, read once, before the plans.
    struct Covered {
      uint64_t begin = UINT64_MAX;
      uint64_t end = 0;
      Status status;
      std::string data;
    };
    std::map<uint64_t, Covered> covered;
    for (auto& [name, entry] : pending) {
      if (entry.table == nullptr) continue;
      Blob& blob = blobs.emplace_back();
      blob.entry = &entry;
      if (!ValidInsertedRows(entry.new_rows, *entry.table)) continue;
      const TableStats* committed = current->Find(name);
      if (committed == nullptr || !committed->materialized ||
          committed->extents.empty() || current->handles.contains(name) ||
          current->quarantined.contains(name) ||
          committed->rows + entry.new_rows.size() != entry.table->NumRows()) {
        continue;
      }
      blob.base = committed;
      for (size_t e = 1; e < committed->extents.size(); ++e) {
        const BlobLocation& at = committed->extents[e];
        Covered& range = covered[at.segment];
        range.begin = std::min(range.begin, at.offset);
        range.end = std::max(range.end, at.offset + at.bytes);
      }
    }
    std::vector<std::pair<const uint64_t, Covered>*> ranges;
    for (auto& range : covered) ranges.push_back(&range);
    TaskPool* pool = TaskPool::Shared();
    pool->ParallelFor(ranges.size(), [&](size_t i) {
      const std::string path = SegmentPath(ranges[i]->first);
      Covered& range = ranges[i]->second;
      range.status = Retrying([&] {
        return env_->ReadFileRange(path, range.begin, range.end - range.begin,
                                   &range.data);
      });
    });
    // The row indices of the older patch at `at`.
    auto patch_rows =
        [&](const BlobLocation& at) -> StatusOr<std::vector<uint32_t>> {
      const Covered& range = covered.at(at.segment);
      S2RDF_RETURN_IF_ERROR(range.status);
      if (at.offset - range.begin + at.bytes > range.data.size()) {
        return OutOfRangeError("patch past the end of " +
                               SegmentPath(at.segment));
      }
      return PatchRows(std::string_view(range.data)
                           .substr(at.offset - range.begin, at.bytes));
    };
    pool->ParallelFor(blobs.size(), [&](size_t i) {
      Blob& blob = blobs[i];
      const rdf::Table& table = *blob.entry->table;
      if (blob.base != nullptr) {
        const std::vector<BlobLocation>& extents = blob.base->extents;
        std::vector<uint32_t> rows = blob.entry->new_rows;
        blob.keep = extents.size();
        blob.patch = MakePatch(table, rows);
        blob.plan = PlanTableBlob(blob.patch);
        // Size tiers: the patch absorbs each older one under twice its
        // bytes.
        while (blob.base != nullptr && blob.keep > 1 &&
               extents[blob.keep - 1].bytes < 2 * blob.plan.bytes) {
          StatusOr<std::vector<uint32_t>> older =
              patch_rows(extents[blob.keep - 1]);
          if (older.ok()) rows = MergeInsertedRows(*older, rows);
          if (!older.ok() || !ValidInsertedRows(rows, table)) {
            blob.base = nullptr;  // Unreadable: rewrite the table whole.
            break;
          }
          --blob.keep;
          blob.patch = MakePatch(table, rows);
          blob.plan = PlanTableBlob(blob.patch);
        }
        // The chain rule: patches stay below their base's bytes.
        uint64_t patches = blob.plan.bytes;
        for (size_t e = 1; e < blob.keep; ++e) patches += extents[e].bytes;
        if (blob.base != nullptr && patches >= extents[0].bytes) {
          blob.base = nullptr;
        }
      }
      if (blob.base == nullptr) {
        blob.patch = rdf::Table();
        blob.plan = PlanTableBlob(table);
      }
    });
    uint64_t size = 0;
    for (Blob& blob : blobs) {
      TableStats& stats = blob.entry->stats;
      stats.extents.clear();
      if (blob.base != nullptr) {
        stats.extents.assign(blob.base->extents.begin(),
                             blob.base->extents.begin() + blob.keep);
        blob.entry->patched = true;
      }
      stats.extents.push_back({gen, size, blob.plan.bytes});
      stats.bytes = 0;
      for (const BlobLocation& at : stats.extents) stats.bytes += at.bytes;
      size += blob.plan.bytes;
    }
    for (const auto& [name, entry] : pending) next.stats[name] = entry.stats;
    std::vector<BlobLocation>& dictionary = next.dictionary_blobs;
    const uint64_t dictionary_offset = size;
    if (!options.dictionary_blob.empty()) {
      dictionary.push_back({gen, size, options.dictionary_blob.size()});
      size += options.dictionary_blob.size();
    }
    std::map<uint64_t, uint64_t> live;
    for (const auto& [name, stats] : next.stats) {
      for (const BlobLocation& at : stats.extents) {
        if (at.segment != gen) live[at.segment] += at.bytes;
      }
    }
    for (const BlobLocation& at : dictionary) {
      if (at.segment != gen) live[at.segment] += at.bytes;
    }
    // The space rule: drop every older segment that holds no live extent,
    // and compact the others, least live share first, only while the
    // generation's segments would exceed twice its live bytes.
    std::vector<std::pair<uint64_t, const SegmentFile*>> sparse;
    uint64_t on_disk = size;
    uint64_t live_bytes = size;
    for (const auto& [old_segment, file] : next.segments) {
      sparse.emplace_back(old_segment, file.get());
      on_disk += file->bytes;
      live_bytes += live[old_segment];
    }
    auto live_share_below = [&](const auto& a, const auto& b) {
      using Wide = unsigned __int128;
      return Wide{live[a.first]} * b.second->bytes <
             Wide{live[b.first]} * a.second->bytes;
    };
    std::stable_sort(sparse.begin(), sparse.end(), live_share_below);
    uint64_t copy_bytes = 0;
    size_t compacted = 0;
    for (; compacted < sparse.size(); ++compacted) {
      const auto& [old_segment, file] = sparse[compacted];
      if (live[old_segment] > 0 && on_disk <= 2 * live_bytes) break;
      on_disk -= file->bytes - live[old_segment];
      copy_bytes += live[old_segment];
    }
    sparse.resize(compacted);
    // Room for every copy; a sparse segment that cannot be copied gives
    // its room back below.
    segment.resize(size + copy_bytes);
    pool->ParallelFor(blobs.size(), [&](size_t i) {
      const Blob& blob = blobs[i];
      WriteTableBlob(blob.base != nullptr ? blob.patch : *blob.entry->table,
                     blob.plan,
                     segment.data() + blob.entry->stats.extents.back().offset);
    });
    options.dictionary_blob.copy(segment.data() + dictionary_offset,
                                 options.dictionary_blob.size());
    for (const auto& [old_segment, file] : sparse) {
      // One read of the old segment; a segment that cannot be read whole
      // stays, and a later commit tries again.
      std::string data;
      if (live[old_segment] > 0 &&
          !ReadFileRetrying(file->path, &data).ok()) {
        continue;
      }
      // Every extent that lies there, as (table, place in its chain).
      std::vector<std::pair<TableStats*, size_t>> copied;
      for (auto& [name, stats] : next.stats) {
        for (size_t e = 0; e < stats.extents.size(); ++e) {
          if (stats.extents[e].segment == old_segment) {
            copied.emplace_back(&stats, e);
          }
        }
      }
      std::vector<BlobLocation*> copied_dictionary;
      for (BlobLocation& at : dictionary) {
        if (at.segment == old_segment) copied_dictionary.push_back(&at);
      }
      auto fits = [&](const BlobLocation& at) {
        return at.offset <= data.size() && at.bytes <= data.size() - at.offset;
      };
      if (!std::all_of(copied.begin(), copied.end(),
                       [&](const auto& entry) {
                         return fits(entry.first->extents[entry.second]);
                       }) ||
          !std::all_of(copied_dictionary.begin(), copied_dictionary.end(),
                       [&](const BlobLocation* at) { return fits(*at); })) {
        continue;
      }
      // Moves the extent at `*at` to the end of the new segment.
      auto copy = [&](BlobLocation* at) {
        const BlobLocation from = *at;
        std::memcpy(segment.data() + size, data.data() + from.offset,
                    from.bytes);
        *at = {gen, size, from.bytes};
        size += from.bytes;
        return from;
      };
      for (const auto& [stats, e] : copied) {
        const BlobLocation from = copy(&stats->extents[e]);
        moved.push_back({stats->name, e, from, stats->extents[e]});
      }
      for (BlobLocation* at : copied_dictionary) copy(at);
      dropped.push_back(old_segment);
    }
    segment.resize(size);
    for (uint64_t old_segment : dropped) next.segments.erase(old_segment);
    if (!segment.empty()) {
      next.segments[gen] =
          std::make_shared<SegmentFile>(env_, SegmentPath(gen), segment.size());
    }
    if (report != nullptr) {
      *report = {};
      for (const Blob& blob : blobs) {
        ++(blob.base != nullptr ? report->tables_patched
                                : report->tables_written_whole);
      }
    }

    // Phase 3 — one sync for the segment, then the manifest (written
    // atomically), each read back; then the CURRENT flip: the commit
    // point. A crash or a failed read-back before it leaves only an
    // unreferenced segment for Recover() to sweep. The manifest's SyncDir
    // also makes the segment's directory entry durable before CURRENT
    // can reference it.
    if (!segment.empty()) {
      const std::string path = SegmentPath(gen);
      S2RDF_RETURN_IF_ERROR(env_->WriteFile(path, segment));
      S2RDF_RETURN_IF_ERROR(env_->SyncFile(path));
      S2RDF_RETURN_IF_ERROR(VerifyWritten(path, segment));
    }
    const std::string manifest = dir_ + "/" + ManifestFileName(gen);
    const std::string content = RenderManifest(next);
    S2RDF_RETURN_IF_ERROR(env_->WriteFileAtomic(manifest, content));
    S2RDF_RETURN_IF_ERROR(VerifyWritten(manifest, content));
    S2RDF_RETURN_IF_ERROR(env_->WriteFileAtomic(
        dir_ + "/" + kCurrentFile, ManifestFileName(gen) + "\n"));
    if (report != nullptr) {
      report->bytes_written = segment.size() + content.size();
    }
  } else if (report != nullptr) {
    *report = {};
  }

  // Phase 4 — swap the catalog's maps under one lock hold, so the next
  // State() holds the whole batch and earlier states none of it. The
  // segments this commit dropped are removed when the last state that
  // holds them is released; `retired` and `released` outlive the lock
  // so that no removal runs under it.
  Segments retired;
  std::shared_ptr<const CatalogState> released;
  {
    MutexLock lock(&mu_);
    for (auto& [name, entry] : pending) {
      auto staged = staged_.find(name);
      if (staged != staged_.end()) {
        // A version staged after phase 1 lands in the next commit; a
        // batch update replaces any staged one.
        if (entry.staged_seq != 0 && staged->second != entry.staged_seq) {
          continue;
        }
        staged_.erase(staged);
      }
      live_.stats[name] = entry.stats;
      if (entry.table != nullptr) {
        // A whole write supersedes old corruption; a patch extends the
        // extents, and any quarantine, of the version it patches.
        if (!entry.patched) live_.quarantined.erase(name);
        if (!on_disk) {
          SetHandleLocked(name, std::move(entry.table));
        } else {
          SetHandleLocked(name, nullptr);
          if (live_.quarantined.contains(name)) {
            EvictFromMemoryLocked(name);
          } else {
            CacheInsertLocked(name, std::move(entry.table),
                              entry.stats.extents);
          }
        }
      } else if (!entry.stats.materialized) {
        live_.quarantined.erase(name);
        EvictFromMemoryLocked(name);
        SetHandleLocked(name, nullptr);
      }
      // Retained extents keep their cached copy and their quarantine.
    }
    for (const Move& move : moved) {
      auto it = live_.stats.find(move.name);
      if (it == live_.stats.end() ||
          move.extent >= it->second.extents.size() ||
          !(it->second.extents[move.extent] == move.from)) {
        continue;
      }
      it->second.extents[move.extent] = move.to;
      auto cached = cache_.find(move.name);
      if (cached != cache_.end() && move.extent < cached->second.at.size() &&
          cached->second.at[move.extent] == move.from) {
        cached->second.at[move.extent] = move.to;
      }
    }
    if (on_disk) {
      for (uint64_t old_segment : dropped) {
        live_.segments.at(old_segment)->dropped.store(true);
      }
      retired = std::move(live_.segments);
      live_.segments = std::move(next.segments);
      live_.dictionary_blobs = std::move(next.dictionary_blobs);
    }
    live_.generation = gen;
    released = std::move(state_);
  }
  // Phase 5 — best-effort prune of manifests the chain no longer needs.
  if (on_disk) PruneOldManifests(gen);
  return Status::Ok();
}

Status Catalog::AdoptManifest(const std::string& content) {
  // Verify the self-checksum (everything up to the trailing checksum
  // line) before trusting any field.
  size_t checksum_pos = content.rfind(kChecksumPrefix);
  if (checksum_pos == std::string::npos) {
    return InvalidArgumentError("manifest missing checksum line");
  }
  if (checksum_pos != 0 && content[checksum_pos - 1] != '\n') {
    return InvalidArgumentError("manifest checksum line misplaced");
  }
  std::string hex = content.substr(checksum_pos + sizeof(kChecksumPrefix) - 1);
  uint64_t stored =
      std::strtoull(std::string(StripWhitespace(hex)).c_str(), nullptr, 16);
  if (Fnv1a64(std::string_view(content).substr(0, checksum_pos)) != stored) {
    return InvalidArgumentError("manifest checksum mismatch");
  }
  CatalogState parsed;
  parsed.catalog = this;
  for (const std::string& line : StrSplit(content, '\n')) {
    std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == '#') {
      std::string_view rest = trimmed;
      std::vector<uint64_t> numbers;
      if (ConsumePrefix(&rest, kGenerationHeader)) {
        parsed.generation =
            std::strtoull(std::string(rest).c_str(), nullptr, 10);
      } else if (ConsumePrefix(&rest, kSegmentHeader)) {
        if (!ParseNumbers(rest, 2, &numbers)) {
          return InvalidArgumentError("malformed manifest segment: " + line);
        }
        parsed.segments[numbers[0]] = std::make_shared<SegmentFile>(
            env_, SegmentPath(numbers[0]), numbers[1]);
      } else if (ConsumePrefix(&rest, kDictionaryHeader)) {
        if (!ParseNumbers(rest, 3, &numbers)) {
          return InvalidArgumentError("malformed manifest dictionary: " + line);
        }
        parsed.dictionary_blobs.push_back({numbers[0], numbers[1], numbers[2]});
      } else if (StartsWith(trimmed, kDirectivePrefix)) {
        // Something the writing build recorded and this one would
        // ignore — an older build's list of ExtVP reductions that miss
        // triples, say: serving the store regardless could answer
        // wrongly.
        return FailedPreconditionError(
            "manifest generation " + std::to_string(parsed.generation) +
            " carries a directive this build does not know: " + line);
      }
      continue;
    }
    // Seven fields — name, rows, selectivity, then the base blob's bytes,
    // materialized, segment (0 when the table is not on disk) and offset
    // — then segment, offset and bytes per patch.
    std::vector<std::string> fields = StrSplit(trimmed, '\t');
    if (fields.size() < 7 || (fields.size() - 7) % 3 != 0) {
      return InvalidArgumentError("malformed manifest line: " + line);
    }
    bool numeric = true;
    auto number = [&](size_t f) {
      long long value = 0;
      numeric = numeric && ParseInt64(fields[f], &value) && value >= 0;
      return static_cast<uint64_t>(value);
    };
    TableStats stats;
    stats.name = fields[0];
    stats.rows = number(1);
    stats.materialized = fields[4] == "1";
    const BlobLocation base{number(5), number(6), number(3)};
    if (base.segment != 0) stats.extents.push_back(base);
    for (size_t f = 7; f < fields.size(); f += 3) {
      stats.extents.push_back({number(f), number(f + 1), number(f + 2)});
    }
    if (!numeric || !ParseDouble(fields[2], &stats.selectivity)) {
      return InvalidArgumentError("malformed manifest numbers: " + line);
    }
    if (base.segment == 0 && fields.size() > 7) {
      return InvalidArgumentError("manifest patch without a base: " + line);
    }
    for (const BlobLocation& at : stats.extents) stats.bytes += at.bytes;
    parsed.stats[stats.name] = std::move(stats);
  }
  MutexLock lock(&mu_);
  live_ = std::move(parsed);
  cache_.clear();
  lru_.clear();
  staged_.clear();
  cached_bytes_ = 0;
  state_.reset();
  return Status::Ok();
}

Status Catalog::LoadManifest() {
  bool named_by_current = false;
  return AdoptNewestManifest(&named_by_current);
}

Status Catalog::AdoptNewestManifest(bool* named_by_current) {
  *named_by_current = false;
  if (dir_.empty()) {
    return FailedPreconditionError("in-memory catalog has no manifest");
  }
  // 1. The generation CURRENT points at.
  std::string current;
  Status current_status =
      ReadFileRetrying(dir_ + "/" + kCurrentFile, &current);
  if (current_status.ok()) {
    std::string name(StripWhitespace(current));
    std::string content;
    Status status = ReadFileRetrying(dir_ + "/" + name, &content);
    if (status.ok()) status = AdoptManifest(content);
    *named_by_current = status.ok();
    if (status.ok()) return status;
    // Retryable, or intact but unreadable here: neither is corruption.
    if (IsTransient(status) || IsUnknownDirective(status)) return status;
    corruptions_detected_.fetch_add(1, std::memory_order_relaxed);
    // Fall through to the chain scan.
  } else if (IsTransient(current_status)) {
    return current_status;
  }
  // 2. Chain fallback: newest-first, adopt the first generation that
  // still verifies.
  StatusOr<std::vector<std::string>> files = env_->ListDir(dir_);
  if (files.ok()) {
    std::vector<std::pair<uint64_t, std::string>> candidates;
    for (const std::string& file : *files) {
      uint64_t gen = 0;
      if (ParseManifestGeneration(file, &gen)) {
        candidates.emplace_back(gen, file);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [gen, file] : candidates) {
      std::string content;
      if (!ReadFileRetrying(dir_ + "/" + file, &content).ok()) continue;
      Status adopted = AdoptManifest(content);
      if (adopted.ok() || IsUnknownDirective(adopted)) return adopted;
    }
  }
  return NotFoundError("no readable manifest in " + dir_);
}

StatusOr<RecoveryReport> Catalog::Recover() {
  bool named_by_current = false;
  S2RDF_RETURN_IF_ERROR(AdoptNewestManifest(&named_by_current));
  RecoveryReport report;
  // Every extent of a materialized table by the segment that holds it,
  // and every segment holding a live blob of either kind.
  std::map<uint64_t, std::vector<std::pair<std::string, BlobLocation>>>
      by_segment;
  std::set<uint64_t> referenced;
  size_t tables = 0;
  std::set<std::string> failed;  // Tables with an extent that fails.
  {
    MutexLock lock(&mu_);
    report.generation = live_.generation;
    for (const auto& [name, stats] : live_.stats) {
      if (!stats.materialized) continue;
      ++tables;
      if (stats.extents.empty()) failed.insert(name);
      for (const BlobLocation& at : stats.extents) {
        by_segment[at.segment].emplace_back(name, at);
        referenced.insert(at.segment);
      }
    }
    for (const BlobLocation& at : live_.dictionary_blobs) {
      referenced.insert(at.segment);
    }
  }
  // Read each segment once and verify every extent's byte range; a table
  // with an extent that fails is quarantined, so queries degrade (ExtVP
  // -> VP -> TT) instead of erroring.
  for (const auto& [segment, extents] : by_segment) {
    std::string data;
    const bool readable = ReadFileRetrying(SegmentPath(segment), &data).ok();
    for (const auto& [name, at] : extents) {
      const bool verified =
          readable && at.offset <= data.size() &&
          at.bytes <= data.size() - at.offset &&
          VerifyTableBlob(std::string_view(data).substr(at.offset, at.bytes))
              .ok();
      if (!verified) failed.insert(name);
    }
  }
  report.tables_verified = tables - failed.size();
  report.tables_quarantined = failed.size();
  {
    MutexLock lock(&mu_);
    for (const std::string& name : failed) QuarantineLocked(name);
  }
  // Delete orphaned staging files (crash debris), manifests older than
  // the previous generation, and segments the adopted manifest does not
  // reference — the latter roll back a commit whose flip never happened.
  // After a fallback from a damaged CURRENT generation the newer
  // segments stay: the adopted manifest cannot account for them, and one
  // may hold the only intact copy of a blob.
  StatusOr<std::vector<std::string>> files = env_->ListDir(dir_);
  if (files.ok()) {
    for (const std::string& file : *files) {
      uint64_t gen = 0;
      if (EndsWith(file, Env::kTempSuffix)) {
        if (env_->RemoveFile(dir_ + "/" + file).ok()) {
          ++report.temp_files_removed;
        }
      } else if (ParseManifestGeneration(file, &gen)) {
        if (gen + 1 < report.generation &&
            env_->RemoveFile(dir_ + "/" + file).ok()) {
          ++report.old_manifests_removed;
        }
      } else if (ParseNumberedFile(file, kSegmentPrefix, kSegmentSuffix,
                                   &gen)) {
        if (named_by_current && !referenced.contains(gen) &&
            env_->RemoveFile(dir_ + "/" + file).ok()) {
          ++report.orphan_segments_removed;
        }
      }
    }
  }
  LogEvent(LogLevel::kInfo, "catalog_recovered",
           {{"generation", report.generation},
            {"tables_verified", report.tables_verified},
            {"tables_quarantined", report.tables_quarantined},
            {"temp_files_removed", report.temp_files_removed},
            {"old_manifests_removed", report.old_manifests_removed},
            {"orphan_segments_removed", report.orphan_segments_removed}});
  return report;
}

}  // namespace s2rdf::storage
