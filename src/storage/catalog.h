#ifndef S2RDF_STORAGE_CATALOG_H_
#define S2RDF_STORAGE_CATALOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "rdf/table.h"

// Named-table catalog with persisted statistics — the analogue of the
// HDFS directory of Parquet files plus the table statistics S2RDF
// collects during ExtVP creation (Sec. 6.1). The query compiler consults
// the statistics (rows, selectivity factor) without touching table data;
// statistics exist even for tables that were *not* materialized (empty
// tables and tables pruned by the SF threshold), which is what enables
// the paper's "answer from statistics alone" shortcut.
//
// Durability (what HDFS gave the paper for free): CommitBatch is the one
// code path that writes durable bytes. A commit at generation g packs the
// S2TB blob of every table it writes, then the dictionary blob it carries
// (the terms minted since the previous commit), into one segment file
// ("segment-<g>.s2seg", blobs back to back, no framing of its own): it
// sizes every blob (storage/table_file.h), lays them out in name order,
// sizes the segment once and writes each blob in place across the shared
// TaskPool, so the bytes do not depend on the pool's width. It fsyncs the
// segment once and reads it back; then it writes manifest generation g,
// reads that back, and flips CURRENT. The manifest is a generation chain
// — immutable "manifest-<g>.tsv" files (self-checksummed, carrying their
// generation and the live segments' sizes) plus a CURRENT pointer updated
// atomically; if the current generation is damaged, loading falls back to
// the newest generation that still verifies (one that verifies but
// carries a directive this build does not know fails the load instead).
// A crash before the flip leaves only an unreferenced segment, which
// Recover() deletes.
//
// Extents: where the paper adds a Parquet part file to a table's
// directory, a commit here adds a patch. A committed table is a base blob
// plus a chain of patch blobs, its extents, each lying in some segment;
// its manifest line lists them (segment, offset, bytes), base first. A
// patch holds the rows one commit inserted, each with its index in the
// table after that commit (storage/table_file.h), so rows may land
// anywhere in the table, and a read merges base and patches back into the
// exact rows the commit held. A TableUpdate that names the rows new since
// the table's committed version (TableUpdate::new_rows) is written as a
// patch, unless one of these rules writes it whole:
//   - size tiers: the new patch absorbs each older patch smaller than
//     twice its own bytes (re-encoding the union of their rows), so each
//     patch is at least twice the next newer one, a table has O(log)
//     extents and a row is re-encoded O(log) times;
//   - the chain rule: when the patches together would reach the base's
//     bytes, the table is written whole, so a read touches at most twice
//     the table's live bytes;
//   - a quarantined, staged or never-committed table, or an update that
//     names no new rows, is written whole (the rewrite heals quarantine).
//
// Space: a commit drops every older segment that holds no live extent,
// and copies forward, byte for byte, the live extents (tables' and
// dictionary's alike) of the older segments with the least live share,
// dropping each, only while the generation's segments would exceed twice
// its live bytes — so the generation the catalog serves never references
// more than twice its live bytes, and a store compacts only once its dead
// bytes reach its live ones. Patch indices are logical, so a moved extent
// is not re-encoded.
//
// Put/PutStatsOnly only stage: a staged table is cached, cannot be
// evicted, and becomes durable with the next commit (CommitBatch or
// SaveManifest). Recover() verifies the checksums of every extent of
// every materialized table (one read per segment) and quarantines a table
// any of whose extents is unreadable or corrupt (queries then degrade to
// the base VP table instead of failing — see core/table_selection); it
// deletes orphaned "*.tmp" staging files, superseded manifests and — when
// it adopted the generation CURRENT names — unreferenced segments.
//
// Readers take one immutable CatalogState (State()) and read every
// statistic, quarantine bit and table of one generation from it; a
// commit that lands meanwhile changes nothing they see. A segment file
// is removed once no generation the catalog serves and no state a
// reader holds references it.
//
// Thread safety: all public methods are safe to call concurrently,
// except that commits (CommitBatch, SaveManifest) must be serialized by
// the caller. The in-memory cache hands out shared_ptr ownership, so
// evicting a table under memory pressure never invalidates a copy an
// in-flight query is still scanning.

namespace s2rdf::storage {

class Catalog;
// A segment file, shared by every state that references it (catalog.cc).
struct SegmentFile;

// Where a committed blob lies: the generation whose segment file holds
// it, its byte offset there and its size. Equal locations mean equal
// bytes, since a referenced segment is never rewritten.
struct BlobLocation {
  uint64_t segment = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  bool operator==(const BlobLocation&) const = default;
};

struct TableStats {
  std::string name;
  uint64_t rows = 0;
  // Selectivity factor SF = |table| / |base VP table| (1.0 for VP/base
  // tables themselves).
  double selectivity = 1.0;
  // Bytes of the table's extents on disk; 0 when it is not on disk
  // (stats-only, staged, or an in-memory catalog).
  uint64_t bytes = 0;
  bool materialized = false;
  // Where the table lies on disk: its base blob, then its patches, oldest
  // first. Empty when it is not on disk.
  std::vector<BlobLocation> extents;
};

// What startup recovery found and repaired.
struct RecoveryReport {
  // Manifest generation the store recovered to.
  uint64_t generation = 0;
  // Materialized tables all of whose extents' checksums verified.
  size_t tables_verified = 0;
  // Tables quarantined (unreadable or corrupt).
  size_t tables_quarantined = 0;
  // Orphaned "*.tmp" staging files deleted.
  size_t temp_files_removed = 0;
  // Superseded manifest generations pruned.
  size_t old_manifests_removed = 0;
  // Segment files the recovered generation does not reference — debris
  // of a commit that never flipped, or of one whose clean-up a crash cut
  // short. A fallback generation sweeps none: it cannot account for the
  // newer segments.
  size_t orphan_segments_removed = 0;
};

// One table's new state within an atomic CommitBatch: a materialized
// replacement (`table` set) or a statistics-only entry (`table` empty —
// SF = 0/1 or pruned by the SF threshold; any previously materialized
// blob is superseded).
struct TableUpdate {
  std::string name;
  std::optional<rdf::Table> table;
  uint64_t rows = 0;          // Used when `table` is empty.
  double selectivity = 1.0;
  // When set (and `table` is empty), the existing materialized blob is
  // kept and only rows/selectivity change — the SF-denominator update
  // for reductions whose row set is untouched by a batch. Ignored when
  // the table was not materialized.
  bool retain_table = false;
  // With `table`: the ascending indices of the rows of `table` that its
  // committed version lacks, around which `table` holds that version's
  // rows in their order; empty when unknown. The commit may then write
  // these rows alone, as a patch (see the header comment).
  std::vector<uint32_t> new_rows;
};

// What one CommitBatch wrote.
struct CommitReport {
  // Bytes of its segment and its manifest.
  uint64_t bytes_written = 0;
  // Tables it wrote as a patch, and tables it wrote whole.
  uint64_t tables_patched = 0;
  uint64_t tables_written_whole = 0;
};

// What a CommitBatch carries besides its table updates.
struct CommitOptions {
  // The dictionary terms minted since the previous commit, as one blob
  // (rdf::Dictionary::Serialize), which the catalog stores as opaque
  // bytes and appends to CatalogState::dictionary_blobs. Empty adds
  // none; an in-memory catalog ignores it.
  std::string dictionary_blob;
};

// One generation of a catalog, immutable once published: what a query
// reads from first to last (Catalog::State). Its tables are read through
// Catalog::GetTable(state, name) as of this state — a committed table at
// the blob location recorded here, any other (staged, or every table of
// an in-memory catalog) from `handles`. The state keeps the segment files
// it references on disk until it is released. `catalog` must outlive it.
struct CatalogState {
  const Catalog* catalog = nullptr;
  // The manifest generation last loaded or committed.
  uint64_t generation = 0;
  // All entries, name-ordered.
  std::map<std::string, TableStats, std::less<>> stats;
  // The materialized tables that have no committed blob.
  std::unordered_map<std::string, std::shared_ptr<const rdf::Table>> handles;
  // Tables that failed verification; never loaded again this run.
  std::set<std::string, std::less<>> quarantined;
  // Live segment files by generation.
  std::map<uint64_t, std::shared_ptr<SegmentFile>> segments;
  // Where each committed dictionary blob lies, in id order (see
  // CommitOptions::dictionary_blob); empty for an in-memory catalog.
  std::vector<BlobLocation> dictionary_blobs;

  // The entry named `name`; null when there is none.
  const TableStats* Find(std::string_view name) const {
    auto it = stats.find(name);
    return it == stats.end() ? nullptr : &it->second;
  }
};

class Catalog {
 public:
  // `dir` is the storage directory; empty keeps everything in memory
  // (nothing is then encoded: every table's `bytes` stays 0). `env` is
  // the file-I/O environment (Env::Default() when null); it must outlive
  // the catalog.
  explicit Catalog(std::string dir, Env* env = nullptr);

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Registers `table` under `name`. No I/O: on a disk catalog the table
  // is staged — cached, not evictable — until the next commit writes it.
  Status Put(const std::string& name, rdf::Table table,
             double selectivity);

  // Registers statistics for a table that is intentionally not
  // materialized (SF = 0, SF = 1, or above the SF threshold); staged
  // like Put.
  void PutStatsOnly(const std::string& name, uint64_t rows,
                    double selectivity);

  // Atomically applies `updates` together with everything staged — the
  // one commit path of Create and ingest. Protocol: the blobs of every
  // table the commit writes (whole, or as a patch), its dictionary blob
  // and the live extents copied forward from sparse segments land in
  // "segment-<g>.s2seg", which is fsynced once and read back; then
  // manifest generation g is written and read back, and CURRENT flips
  // to it; then the catalog's maps swap under a single lock hold, and
  // the next State() is generation g. A crash, or a read-back that
  // differs from what was written, before the flip leaves the previous
  // generation fully intact — Recover() deletes the unreferenced
  // segment. A segment the commit emptied or compacted is removed once
  // the last state that references it is released. An in-memory catalog
  // applies the batch with no I/O. When `report` is set, it tells what
  // the commit wrote.
  Status CommitBatch(std::vector<TableUpdate> updates,
                     const CommitOptions& options = {},
                     CommitReport* report = nullptr);

  // The catalog as it is now, as one immutable state: built on the
  // first call after a change and shared by every caller until the next
  // change, so a change costs one copy, however many readers follow.
  std::shared_ptr<const CatalogState> State() const;

  // A copy of the entry, taken under the lock: a commit may replace the
  // entry right after this returns.
  std::optional<TableStats> GetStats(const std::string& name) const;

  // Returns shared ownership of table `name` as of `state`, which must
  // be a state of this catalog: a table with no committed blob from the
  // state's handle; a committed one from the cache when the cache holds
  // the table at the state's extents (a hit), else read from those byte
  // ranges of their segments, base and patches merged (a miss). The
  // returned pointer stays valid
  // across evictions. NotFound for unknown or unmaterialized names;
  // FailedPrecondition for names the state lists as quarantined.
  // Transient (kIoError) read failures are retried with backoff; a
  // corrupt blob that is still the table's current one quarantines the
  // table.
  StatusOr<std::shared_ptr<const rdf::Table>> GetTable(
      const CatalogState& state, const std::string& name);
  // GetTable as of State().
  StatusOr<std::shared_ptr<const rdf::Table>> GetTable(
      const std::string& name);

  // Drops a committed table's in-memory copy (it stays on disk). Tables
  // that are not on disk — staged, or in an in-memory catalog — stay in
  // memory.
  void EvictFromMemory(const std::string& name);

  // --- Memory budget -----------------------------------------------------
  //
  // Disk-backed catalogs can bound their in-memory cache: EvictToBudget
  // drops least-recently-used committed tables until CachedBytes() fits
  // the budget (staged tables are not evictable). Queries pin the tables
  // they scan via the shared_ptr handles of GetTable, so eviction only
  // drops the catalog's own reference; the bytes are reclaimed when the
  // last in-flight query releases its pin. In-memory catalogs (empty
  // `dir`) never evict — their tables have no disk copy.

  // 0 (default) = unlimited.
  void SetMemoryBudget(uint64_t bytes);

  // Approximate bytes of cached (in-memory) tables.
  uint64_t CachedBytes() const;

  // Evicts LRU disk-backed tables until within budget; returns the
  // number of tables dropped.
  size_t EvictToBudget();

  // Table-cache counters (s2rdf_table_cache_*_total): GetTable lookups
  // of committed tables served from memory and read from a segment, and
  // tables EvictToBudget dropped.
  uint64_t cache_hits() const { return cache_hits_.load(); }
  uint64_t cache_misses() const { return cache_misses_.load(); }
  uint64_t cache_evictions() const { return cache_evictions_.load(); }

  // Aggregate statistics over materialized tables.
  uint64_t TotalTuples() const;
  uint64_t TotalBytes() const;
  size_t NumMaterializedTables() const;

  // All stats entries of State(), name-ordered. The pointers stay valid
  // until the catalog next changes.
  std::vector<const TableStats*> AllStats() const;

  // Reads the committed blob at `at`, retrying transient (kIoError)
  // failures with backoff like GetTable does.
  Status ReadBlob(const BlobLocation& at, std::string* blob) const;

  // Commits everything staged: CommitBatch with no updates. Always
  // writes a new manifest generation, then prunes generations older than
  // the previous one. FailedPrecondition for an in-memory catalog.
  Status SaveManifest();

  // Restores the stats from the manifest chain: CURRENT's generation if
  // it verifies, else the newest generation that does. NotFound when no
  // generation verifies. FailedPrecondition, naming the line, when the
  // manifest it reaches verifies but carries a "# s2rdf-" directive this
  // build does not know: that manifest is intact, so no older generation
  // stands in for it, and Recover() then removes nothing.
  Status LoadManifest();

  // Startup recovery: LoadManifest, then read each referenced segment
  // once and verify the byte range of every extent of every materialized
  // table (quarantining a table any of whose extents fails), and delete
  // orphaned staging files,
  // superseded manifests and — only when the adopted generation is the
  // one CURRENT names — segments no live blob references.
  StatusOr<RecoveryReport> Recover();

  // --- Corruption handling ----------------------------------------------
  //
  // A table that failed verification at recovery or a load-time checksum
  // is quarantined (CatalogState::quarantined): it refuses to load, and
  // table selection degrades to the base VP table / triples table
  // instead.

  // Incremented once per query that had to substitute a superset table
  // for a quarantined or corrupt one (at table selection or mid-query).
  // const because the compiler only holds a const catalog reference.
  void NoteDegradedQuery() const;

  // Monitoring counters (exposed via the endpoint's /metrics).
  uint64_t corruptions_detected() const;
  uint64_t queries_degraded() const;
  uint64_t quarantined_tables() const;

  // Transient-read retry attempts performed (s2rdf_read_retries_total).
  uint64_t read_retries() const;

  // Test seam for the jittered retry backoff: replaces the real
  // sleep-for with `fn` (nullptr restores sleeping). Process-wide.
  static void SetRetrySleepFnForTest(
      void (*fn)(std::chrono::milliseconds delay));

  const std::string& dir() const { return dir_; }

  // Path of the segment file written by the commit of generation
  // `segment` (see BlobLocation::segment).
  std::string SegmentPath(uint64_t segment) const;

 private:
  using Segments = std::map<uint64_t, std::shared_ptr<SegmentFile>>;
  using Extents = std::vector<BlobLocation>;
  // A committed table's cached copy, read from the extents `at`; on the
  // LRU list at `lru`.
  struct CacheEntry {
    std::shared_ptr<const rdf::Table> table;
    Extents at;
    std::list<std::string>::iterator lru;
  };

  // `read` through bounded retry with jittered backoff on transient
  // kIoError, counted in read_retries().
  template <typename ReadFn>
  Status Retrying(const ReadFn& read) const;
  Status ReadFileRetrying(const std::string& path, std::string* data) const;
  // Reads a committed table: its base blob with its patches applied.
  StatusOr<rdf::Table> ReadTable(const Extents& extents) const;
  // Reads `path` back in bounded chunks and compares it with `written`.
  Status VerifyWritten(const std::string& path,
                       std::string_view written) const;
  // Registers a staged entry (and its table, if materialized).
  void Stage(TableStats stats, std::shared_ptr<const rdf::Table> table)
      S2RDF_EXCLUDES(mu_);
  // Renders the checksummed manifest content of `view`.
  static std::string RenderManifest(const CatalogState& view);
  // LoadManifest; `*named_by_current` tells whether the adopted
  // generation is the one CURRENT names (false after a fallback).
  Status AdoptNewestManifest(bool* named_by_current);
  // Best-effort prune of manifest generations older than `gen` - 1.
  void PruneOldManifests(uint64_t gen) const;
  // Parses + verifies one manifest blob and swaps it in. mu_ NOT held.
  Status AdoptManifest(const std::string& content) S2RDF_EXCLUDES(mu_);
  // The *Locked helpers require mu_ to be held (compiler-checked under
  // the analyze preset).
  void QuarantineLocked(const std::string& name) S2RDF_REQUIRES(mu_);
  void CacheInsertLocked(const std::string& name,
                         std::shared_ptr<const rdf::Table> table,
                         Extents at) S2RDF_REQUIRES(mu_);
  void EvictFromMemoryLocked(const std::string& name) S2RDF_REQUIRES(mu_);
  // Sets the handle of a table with no committed blob; null drops it.
  void SetHandleLocked(const std::string& name,
                       std::shared_ptr<const rdf::Table> table)
      S2RDF_REQUIRES(mu_);

  std::string dir_;
  Env* env_;
  mutable Mutex mu_;
  // The catalog's own maps, which every change edits in place.
  CatalogState live_ S2RDF_GUARDED_BY(mu_);
  // The state State() last built from live_; every change resets it.
  mutable std::shared_ptr<const CatalogState> state_ S2RDF_GUARDED_BY(mu_);
  // Cached copies of committed tables, by name.
  std::unordered_map<std::string, CacheEntry> cache_ S2RDF_GUARDED_BY(mu_);
  uint64_t memory_budget_ S2RDF_GUARDED_BY(mu_) = 0;
  // Bytes of the cached copies and of live_.handles.
  uint64_t cached_bytes_ S2RDF_GUARDED_BY(mu_) = 0;
  // Cached committed tables, least recently used at the front.
  std::list<std::string> lru_ S2RDF_GUARDED_BY(mu_);
  // Entries staged since the last commit, by name, each with the stage
  // sequence number of its latest Put/PutStatsOnly: a commit consumes
  // only the versions it wrote.
  std::map<std::string, uint64_t> staged_ S2RDF_GUARDED_BY(mu_);
  uint64_t stage_seq_ S2RDF_GUARDED_BY(mu_) = 0;
  mutable std::atomic<uint64_t> corruptions_detected_{0};
  mutable std::atomic<uint64_t> queries_degraded_{0};
  mutable std::atomic<uint64_t> quarantined_count_{0};
  mutable std::atomic<uint64_t> read_retries_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> cache_evictions_{0};
};

}  // namespace s2rdf::storage

#endif  // S2RDF_STORAGE_CATALOG_H_
