#include "storage/catalog.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/strings.h"
#include "storage/table_file.h"

namespace s2rdf::storage {

namespace {

// Transient-read retry policy: kTransientRetries retries after the first
// attempt, exponential backoff from kRetryBackoffMs.
constexpr int kTransientRetries = 3;
constexpr int kRetryBackoffMs = 1;

constexpr char kCurrentFile[] = "CURRENT";
constexpr char kManifestPrefix[] = "manifest-";
constexpr char kManifestSuffix[] = ".tsv";
constexpr char kChecksumPrefix[] = "# checksum=";
constexpr char kGenerationHeader[] = "# s2rdf-manifest generation=";
constexpr char kStaleHeader[] = "# s2rdf-stale ";
constexpr char kTableSuffix[] = ".s2tb";

std::string ManifestFileName(uint64_t generation) {
  return kManifestPrefix + std::to_string(generation) + kManifestSuffix;
}

// "manifest-<digits>.tsv" -> generation; false for anything else.
bool ParseManifestGeneration(const std::string& filename, uint64_t* gen) {
  const std::string prefix = kManifestPrefix;
  const std::string suffix = kManifestSuffix;
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

bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kIoError;
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

// Splits a table file name "<name>[@<gen>].s2tb" into its parts; false
// when `file` is not a table file at all.
bool ParseTableFileName(const std::string& file, std::string* name,
                        uint64_t* file_gen) {
  if (!EndsWith(file, kTableSuffix)) return false;
  std::string base =
      file.substr(0, file.size() - std::string_view(kTableSuffix).size());
  *file_gen = 0;
  size_t at = base.rfind('@');
  if (at != std::string::npos && at + 1 < base.size()) {
    bool digits = true;
    for (size_t i = at + 1; i < base.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(base[i]))) digits = false;
    }
    if (digits) {
      *file_gen = std::strtoull(base.c_str() + at + 1, nullptr, 10);
      base = base.substr(0, at);
    }
  }
  *name = base;
  return true;
}

}  // namespace

void Catalog::SetRetrySleepFnForTest(void (*fn)(std::chrono::milliseconds)) {
  g_retry_sleep_fn.store(fn, std::memory_order_relaxed);
}

Catalog::Catalog(std::string dir, Env* env)
    : dir_(std::move(dir)), env_(env != nullptr ? env : Env::Default()) {
  if (!dir_.empty()) {
    // Best-effort; Put reports real errors.
    (void)env_->MakeDirs(dir_);
  }
}

// Moves require external exclusion (header contract), so the lock
// analysis — which cannot pair two objects' capabilities — is off here.
Catalog::Catalog(Catalog&& other) noexcept S2RDF_NO_THREAD_SAFETY_ANALYSIS {
  MutexLock lock(&other.mu_);
  dir_ = std::move(other.dir_);
  env_ = other.env_;
  stats_ = std::move(other.stats_);
  cache_ = std::move(other.cache_);
  memory_budget_ = other.memory_budget_;
  cached_bytes_ = other.cached_bytes_;
  lru_ = std::move(other.lru_);
  quarantined_ = std::move(other.quarantined_);
  stale_sources_ = std::move(other.stale_sources_);
  generation_ = other.generation_;
  corruptions_detected_.store(other.corruptions_detected_.load());
  queries_degraded_.store(other.queries_degraded_.load());
  quarantined_count_.store(other.quarantined_count_.load());
  read_retries_.store(other.read_retries_.load());
  stale_sf_fallbacks_.store(other.stale_sf_fallbacks_.load());
}

Catalog& Catalog::operator=(Catalog&& other) noexcept
    S2RDF_NO_THREAD_SAFETY_ANALYSIS {
  if (this != &other) {
    // Lock order self-then-other is safe: moves forbid concurrent use
    // of either operand, so no cycle can form.
    MutexLock self_lock(&mu_);
    MutexLock other_lock(&other.mu_);
    dir_ = std::move(other.dir_);
    env_ = other.env_;
    stats_ = std::move(other.stats_);
    cache_ = std::move(other.cache_);
    memory_budget_ = other.memory_budget_;
    cached_bytes_ = other.cached_bytes_;
    lru_ = std::move(other.lru_);
    quarantined_ = std::move(other.quarantined_);
    stale_sources_ = std::move(other.stale_sources_);
      generation_ = other.generation_;
    corruptions_detected_.store(other.corruptions_detected_.load());
    queries_degraded_.store(other.queries_degraded_.load());
    quarantined_count_.store(other.quarantined_count_.load());
    read_retries_.store(other.read_retries_.load());
    stale_sf_fallbacks_.store(other.stale_sf_fallbacks_.load());
  }
  return *this;
}

std::string Catalog::TableFileName(const std::string& name,
                                   uint64_t file_gen) {
  if (file_gen == 0) return name + kTableSuffix;
  return name + "@" + std::to_string(file_gen) + kTableSuffix;
}

std::string Catalog::TablePath(const std::string& name,
                               uint64_t file_gen) const {
  return dir_ + "/" + TableFileName(name, file_gen);
}

std::string Catalog::CurrentTablePath(const std::string& name) const {
  uint64_t file_gen = 0;
  {
    MutexLock lock(&mu_);
    auto it = stats_.find(name);
    if (it != stats_.end()) file_gen = it->second.file_gen;
  }
  return TablePath(name, file_gen);
}

Status Catalog::ReadFileRetrying(const std::string& path,
                                 std::string* data) const {
  Status status;
  for (int attempt = 0; attempt <= kTransientRetries; ++attempt) {
    if (attempt > 0) {
      read_retries_.fetch_add(1, std::memory_order_relaxed);
      Backoff(attempt - 1);
    }
    status = env_->ReadFile(path, data);
    if (status.ok() || !IsTransient(status)) return status;
  }
  return status;
}

StatusOr<rdf::Table> Catalog::LoadTableRetrying(
    const std::string& path) const {
  // Only transient (kIoError) failures are retried; corruption
  // (kInvalidArgument) and missing files (kNotFound) are final.
  for (int attempt = 0;; ++attempt) {
    StatusOr<rdf::Table> table = LoadTable(path, env_);
    if (table.ok() || !IsTransient(table.status()) ||
        attempt >= kTransientRetries) {
      return table;
    }
    read_retries_.fetch_add(1, std::memory_order_relaxed);
    Backoff(attempt);
  }
}

Status Catalog::Put(const std::string& name, rdf::Table table,
                    double selectivity) {
  TableStats stats;
  stats.name = name;
  stats.rows = table.NumRows();
  stats.selectivity = selectivity;
  stats.materialized = true;
  stats.file_gen = 0;
  // Serialize/save outside the lock: disk writes must not stall readers.
  if (dir_.empty()) {
    stats.bytes = SerializeTable(table).size();
  } else {
    S2RDF_ASSIGN_OR_RETURN(stats.bytes,
                           SaveTable(table, TablePath(name, 0), env_));
  }
  auto owned = std::make_shared<const rdf::Table>(std::move(table));
  uint64_t superseded_file_gen = 0;
  {
    MutexLock lock(&mu_);
    auto it = stats_.find(name);
    if (it != stats_.end() && it->second.materialized) {
      superseded_file_gen = it->second.file_gen;
    }
    stats_[name] = stats;
    quarantined_.erase(name);  // A fresh write supersedes old corruption.
    CacheInsertLocked(name, std::move(owned));
  }
  if (!dir_.empty() && superseded_file_gen != 0) {
    // The write above replaced a generation-suffixed file with the base
    // path; drop the superseded file (best effort — Recover sweeps it).
    (void)env_->RemoveFile(TablePath(name, superseded_file_gen));
  }
  return Status::Ok();
}

void Catalog::PutStatsOnly(const std::string& name, uint64_t rows,
                           double selectivity) {
  TableStats stats;
  stats.name = name;
  stats.rows = rows;
  stats.selectivity = selectivity;
  stats.materialized = false;
  MutexLock lock(&mu_);
  stats_[name] = stats;
}

bool Catalog::Has(const std::string& name) const {
  MutexLock lock(&mu_);
  return stats_.contains(name);
}

const TableStats* Catalog::GetStats(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = stats_.find(name);
  // Safe to return after unlock: map nodes are stable and stats entries
  // are never erased.
  return it == stats_.end() ? nullptr : &it->second;
}

bool Catalog::IsQuarantined(const std::string& name) const {
  MutexLock lock(&mu_);
  return quarantined_.contains(name);
}

void Catalog::NoteDegradedQuery() const {
  queries_degraded_.fetch_add(1, std::memory_order_relaxed);
}

void Catalog::MarkStaleSource(const std::string& vp_name) {
  MutexLock lock(&mu_);
  stale_sources_.insert(vp_name);
}

bool Catalog::IsStaleSource(const std::string& vp_name) const {
  MutexLock lock(&mu_);
  return stale_sources_.contains(vp_name);
}

std::vector<std::string> Catalog::StaleSources() const {
  MutexLock lock(&mu_);
  return std::vector<std::string>(stale_sources_.begin(),
                                  stale_sources_.end());
}

size_t Catalog::stale_source_count() const {
  MutexLock lock(&mu_);
  return stale_sources_.size();
}

void Catalog::NoteStaleSfFallback() const {
  stale_sf_fallbacks_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Catalog::stale_sf_fallbacks() const {
  return stale_sf_fallbacks_.load(std::memory_order_relaxed);
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

uint64_t Catalog::generation() const {
  MutexLock lock(&mu_);
  return generation_;
}

void Catalog::QuarantineLocked(const std::string& name) {
  if (!quarantined_.insert(name).second) return;
  quarantined_count_.fetch_add(1, std::memory_order_relaxed);
  corruptions_detected_.fetch_add(1, std::memory_order_relaxed);
  EvictFromMemoryLocked(name);
  // Corruption is rare and operator-facing: worth a line even though we
  // hold mu_ (the sink must not call back into the catalog).
  LogEvent(LogLevel::kError, "table_quarantined", {{"table", name}});
}

StatusOr<std::shared_ptr<const rdf::Table>> Catalog::GetTable(
    const std::string& name) {
  uint64_t file_gen = 0;
  {
    MutexLock lock(&mu_);
    auto cached = cache_.find(name);
    if (cached != cache_.end()) {
      TouchLruLocked(name);
      return cached->second;
    }
    auto it = stats_.find(name);
    if (it == stats_.end() || !it->second.materialized) {
      return NotFoundError("table not materialized: " + name);
    }
    if (quarantined_.contains(name)) {
      return FailedPreconditionError("table quarantined: " + name);
    }
    file_gen = it->second.file_gen;
  }
  // Load from disk outside the lock so distinct tables page in
  // concurrently. Two threads may race to load the same table; the
  // loser's copy simply replaces the winner's in the cache (both stay
  // valid through their shared_ptrs).
  StatusOr<rdf::Table> table = LoadTableRetrying(TablePath(name, file_gen));
  if (!table.ok()) {
    if (!IsTransient(table.status())) {
      // Corrupt or missing on disk: quarantine so future queries degrade
      // at selection time instead of re-reading a broken file.
      MutexLock lock(&mu_);
      QuarantineLocked(name);
    }
    return table.status();
  }
  auto owned = std::make_shared<const rdf::Table>(std::move(*table));
  MutexLock lock(&mu_);
  CacheInsertLocked(name, owned);
  return owned;
}

void Catalog::CacheInsertLocked(const std::string& name,
                                std::shared_ptr<const rdf::Table> table) {
  EvictFromMemoryLocked(name);  // Replace any stale copy.
  cached_bytes_ += table->ApproxBytes();
  cache_[name] = std::move(table);
  lru_.push_back(name);
}

void Catalog::TouchLruLocked(const std::string& name) {
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (*it == name) {
      lru_.erase(it);
      break;
    }
  }
  lru_.push_back(name);
}

void Catalog::EvictFromMemoryLocked(const std::string& name) {
  auto it = cache_.find(name);
  if (it == cache_.end()) return;
  cached_bytes_ -= it->second->ApproxBytes();
  cache_.erase(it);
  for (auto lru_it = lru_.begin(); lru_it != lru_.end(); ++lru_it) {
    if (*lru_it == name) {
      lru_.erase(lru_it);
      break;
    }
  }
}

void Catalog::EvictFromMemory(const std::string& name) {
  MutexLock lock(&mu_);
  EvictFromMemoryLocked(name);
}

void Catalog::SetMemoryBudget(uint64_t bytes) {
  MutexLock lock(&mu_);
  memory_budget_ = bytes;
}

uint64_t Catalog::memory_budget() const {
  MutexLock lock(&mu_);
  return memory_budget_;
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
    std::string victim = lru_.front();
    EvictFromMemoryLocked(victim);
    ++evicted;
  }
  return evicted;
}

uint64_t Catalog::TotalTuples() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& [name, stats] : stats_) {
    if (stats.materialized) total += stats.rows;
  }
  return total;
}

uint64_t Catalog::TotalBytes() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& [name, stats] : stats_) total += stats.bytes;
  return total;
}

size_t Catalog::NumMaterializedTables() const {
  MutexLock lock(&mu_);
  size_t count = 0;
  for (const auto& [name, stats] : stats_) {
    if (stats.materialized) ++count;
  }
  return count;
}

size_t Catalog::NumStatsEntries() const {
  MutexLock lock(&mu_);
  return stats_.size();
}

std::vector<const TableStats*> Catalog::AllStats() const {
  MutexLock lock(&mu_);
  std::vector<const TableStats*> out;
  out.reserve(stats_.size());
  for (const auto& [name, stats] : stats_) out.push_back(&stats);
  return out;
}

std::string Catalog::RenderManifest(
    uint64_t gen, const std::map<std::string, TableStats>& stats,
    const std::set<std::string>& stale_sources) {
  std::string out = kGenerationHeader + std::to_string(gen) + "\n";
  out += "# name\trows\tselectivity\tbytes\tmaterialized\tfile_gen\n";
  // Stale markers are part of the checksummed content: deferred-refresh
  // state must survive restarts or a reopened store would trust ExtVP
  // reductions that miss triples.
  for (const std::string& source : stale_sources) {
    out += kStaleHeader + source + "\n";
  }
  for (const auto& [name, entry] : stats) {
    char line[512];
    std::snprintf(line, sizeof(line), "%s\t%llu\t%.17g\t%llu\t%d\t%llu\n",
                  name.c_str(), static_cast<unsigned long long>(entry.rows),
                  entry.selectivity,
                  static_cast<unsigned long long>(entry.bytes),
                  entry.materialized ? 1 : 0,
                  static_cast<unsigned long long>(entry.file_gen));
    out += line;
  }
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(out)));
  out += kChecksumPrefix + std::string(checksum) + "\n";
  return out;
}

Status Catalog::WriteManifestGeneration(uint64_t gen,
                                        const std::string& content) const {
  // Commit protocol: the generation file lands first (atomically), then
  // CURRENT flips to it (atomically). A crash anywhere leaves CURRENT on
  // the previous generation.
  S2RDF_RETURN_IF_ERROR(
      env_->WriteFileAtomic(dir_ + "/" + ManifestFileName(gen), content));
  return env_->WriteFileAtomic(dir_ + "/" + kCurrentFile,
                               ManifestFileName(gen) + "\n");
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

Status Catalog::SaveManifest() const {
  if (dir_.empty()) {
    return FailedPreconditionError("in-memory catalog has no manifest");
  }
  // Concurrent saves are not supported (generations would collide);
  // callers serialize manifest writes (Create / ingest / checkpoints).
  uint64_t gen;
  std::string out;
  {
    MutexLock lock(&mu_);
    gen = generation_ + 1;
    out = RenderManifest(gen, stats_, stale_sources_);
  }
  S2RDF_RETURN_IF_ERROR(WriteManifestGeneration(gen, out));
  {
    MutexLock lock(&mu_);
    generation_ = gen;
  }
  PruneOldManifests(gen);
  return Status::Ok();
}

Status Catalog::CommitBatch(std::vector<TableUpdate> updates,
                            const CommitOptions& options) {
  // Phase 1 — land every replacement file under its generation-suffixed
  // name. Nothing references these files yet, so a crash here only
  // leaves orphans for Recover() to sweep.
  uint64_t next_gen;
  {
    MutexLock lock(&mu_);
    next_gen = generation_ + 1;
  }
  std::vector<TableStats> new_stats(updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    TableStats entry;
    entry.name = updates[i].name;
    entry.selectivity = updates[i].selectivity;
    if (updates[i].table.has_value()) {
      entry.rows = updates[i].table->NumRows();
      entry.materialized = true;
      if (dir_.empty()) {
        entry.bytes = SerializeTable(*updates[i].table).size();
      } else {
        entry.file_gen = next_gen;
        S2RDF_ASSIGN_OR_RETURN(
            entry.bytes, SaveTable(*updates[i].table,
                                   TablePath(entry.name, next_gen), env_));
      }
    } else if (updates[i].retain_table) {
      // Stats-only amendment of a table whose file is unchanged: carry
      // the existing materialization (bytes, file_gen) forward.
      MutexLock lock(&mu_);
      auto it = stats_.find(entry.name);
      if (it != stats_.end() && it->second.materialized) {
        entry.bytes = it->second.bytes;
        entry.materialized = true;
        entry.file_gen = it->second.file_gen;
      }
      entry.rows = updates[i].rows;
    } else {
      entry.rows = updates[i].rows;
    }
    new_stats[i] = entry;
  }
  // Phase 2 — flip the manifest to a generation referencing the new
  // files. This single atomic write is the batch's commit point.
  if (!dir_.empty()) {
    std::string content;
    {
      MutexLock lock(&mu_);
      std::map<std::string, TableStats> merged = stats_;
      std::set<std::string> stale = stale_sources_;
      for (const TableStats& entry : new_stats) merged[entry.name] = entry;
      for (const std::string& s : options.mark_stale) stale.insert(s);
      for (const std::string& s : options.clear_stale) stale.erase(s);
      content = RenderManifest(next_gen, merged, stale);
    }
    S2RDF_RETURN_IF_ERROR(WriteManifestGeneration(next_gen, content));
  }
  // Phase 3 — swap the in-memory state under one lock hold, so a
  // concurrent query observes either the whole batch or none of it
  // (tables it already pinned stay alive via their shared_ptrs).
  std::vector<std::pair<std::string, uint64_t>> superseded;
  {
    MutexLock lock(&mu_);
    for (size_t i = 0; i < updates.size(); ++i) {
      auto it = stats_.find(new_stats[i].name);
      if (it != stats_.end() && it->second.materialized &&
          (!new_stats[i].materialized ||
           it->second.file_gen != new_stats[i].file_gen)) {
        superseded.emplace_back(it->first, it->second.file_gen);
      }
      stats_[new_stats[i].name] = new_stats[i];
      quarantined_.erase(new_stats[i].name);
      if (updates[i].table.has_value()) {
        CacheInsertLocked(new_stats[i].name,
                          std::make_shared<const rdf::Table>(
                              std::move(*updates[i].table)));
      } else if (!new_stats[i].materialized) {
        // Retained-file amendments keep any cached copy; true stats-only
        // demotions drop it.
        EvictFromMemoryLocked(new_stats[i].name);
      }
    }
    for (const std::string& s : options.mark_stale) {
      stale_sources_.insert(s);
    }
    for (const std::string& s : options.clear_stale) {
      stale_sources_.erase(s);
    }
    generation_ = next_gen;
  }
  // Phase 4 — best-effort cleanup of files the new generation no longer
  // references; failures leave debris Recover() removes.
  if (!dir_.empty()) {
    for (const auto& [name, file_gen] : superseded) {
      (void)env_->RemoveFile(TablePath(name, file_gen));
    }
    PruneOldManifests(next_gen);
  }
  return Status::Ok();
}

Status Catalog::AdoptManifest(const std::string& content) {
  // Verify the self-checksum (everything up to the trailing checksum
  // line) before trusting any field.
  uint64_t generation = 0;
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
  std::map<std::string, TableStats> parsed;
  std::set<std::string> stale;
  for (const std::string& line : StrSplit(content, '\n')) {
    std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == '#') {
      std::string_view header(kGenerationHeader);
      if (trimmed.size() > header.size() &&
          trimmed.substr(0, header.size()) == header) {
        generation = std::strtoull(
            std::string(trimmed.substr(header.size())).c_str(), nullptr, 10);
      }
      std::string_view stale_header(kStaleHeader);
      if (trimmed.size() > stale_header.size() &&
          trimmed.substr(0, stale_header.size()) == stale_header) {
        stale.insert(std::string(trimmed.substr(stale_header.size())));
      }
      continue;
    }
    std::vector<std::string> fields = StrSplit(trimmed, '\t');
    if (fields.size() != 6) {
      return InvalidArgumentError("malformed manifest line: " + line);
    }
    TableStats stats;
    stats.name = fields[0];
    long long rows = 0;
    long long bytes = 0;
    long long file_gen = 0;
    double sel = 0.0;
    if (!ParseInt64(fields[1], &rows) || !ParseDouble(fields[2], &sel) ||
        !ParseInt64(fields[3], &bytes) || !ParseInt64(fields[5], &file_gen)) {
      return InvalidArgumentError("malformed manifest numbers: " + line);
    }
    stats.rows = static_cast<uint64_t>(rows);
    stats.selectivity = sel;
    stats.bytes = static_cast<uint64_t>(bytes);
    stats.materialized = fields[4] == "1";
    stats.file_gen = static_cast<uint64_t>(file_gen);
    parsed[stats.name] = stats;
  }
  MutexLock lock(&mu_);
  stats_ = std::move(parsed);
  cache_.clear();
  lru_.clear();
  cached_bytes_ = 0;
  quarantined_.clear();
  stale_sources_ = std::move(stale);
  generation_ = generation;
  return Status::Ok();
}

Status Catalog::LoadManifest() {
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
    if (status.ok()) return status;
    if (IsTransient(status)) return status;  // Retryable, not corruption.
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
      if (AdoptManifest(content).ok()) {
        return Status::Ok();
      }
    }
  }
  return NotFoundError("no readable manifest in " + dir_);
}

StatusOr<RecoveryReport> Catalog::Recover() {
  S2RDF_RETURN_IF_ERROR(LoadManifest());
  RecoveryReport report;
  std::vector<std::pair<std::string, uint64_t>> materialized;
  {
    MutexLock lock(&mu_);
    report.generation = generation_;
    for (const auto& [name, stats] : stats_) {
      if (stats.materialized) materialized.emplace_back(name, stats.file_gen);
    }
  }
  // Verify every materialized table's checksums; quarantine failures so
  // queries degrade (ExtVP -> VP -> TT) instead of erroring.
  for (const auto& [name, file_gen] : materialized) {
    std::string blob;
    Status status = ReadFileRetrying(TablePath(name, file_gen), &blob);
    if (status.ok()) status = VerifyTableBlob(blob);
    if (status.ok()) {
      ++report.tables_verified;
    } else {
      MutexLock lock(&mu_);
      QuarantineLocked(name);
      ++report.tables_quarantined;
    }
  }
  // Delete orphaned staging files (crash debris), manifests older than
  // the previous generation, and table files no longer referenced by
  // the adopted manifest — the latter roll back a torn ingest batch
  // (files landed, manifest flip did not) to the durable generation.
  StatusOr<std::vector<std::string>> files = env_->ListDir(dir_);
  if (files.ok()) {
    const std::string temp_suffix = Env::kTempSuffix;
    for (const std::string& file : *files) {
      if (file.size() > temp_suffix.size() &&
          file.compare(file.size() - temp_suffix.size(), temp_suffix.size(),
                       temp_suffix) == 0) {
        if (env_->RemoveFile(dir_ + "/" + file).ok()) {
          ++report.temp_files_removed;
        }
        continue;
      }
      uint64_t gen = 0;
      if (ParseManifestGeneration(file, &gen) && gen + 1 < report.generation) {
        if (env_->RemoveFile(dir_ + "/" + file).ok()) {
          ++report.old_manifests_removed;
        }
        continue;
      }
      std::string table_name;
      uint64_t file_gen = 0;
      if (ParseTableFileName(file, &table_name, &file_gen)) {
        bool referenced;
        {
          MutexLock lock(&mu_);
          auto it = stats_.find(table_name);
          referenced = it != stats_.end() && it->second.materialized &&
                       it->second.file_gen == file_gen;
        }
        if (!referenced && env_->RemoveFile(dir_ + "/" + file).ok()) {
          ++report.orphan_tables_removed;
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
            {"orphan_tables_removed", report.orphan_tables_removed}});
  return report;
}

}  // namespace s2rdf::storage
