#ifndef S2RDF_STORAGE_INGEST_H_
#define S2RDF_STORAGE_INGEST_H_

#include <cstdint>
#include <string>
#include <vector>

// Batched incremental ingest — the unit of the crash-safe append path.
// A batch carries canonical-term triples; core::ApplyIngestBatch encodes
// them, appends to the triples table and the per-predicate VP tables,
// delta-maintains every dependent ExtVP reduction and its SF statistic,
// and commits everything through one atomic Catalog::CommitBatch. Every
// batch is maintained this one way, so each generation holds what a full
// rebuild over its triples would. The commit writes each table the batch
// grew as a patch of the rows it added, unless the catalog's chain rules
// write it whole, so a batch writes about what it adds. The batch either
// becomes fully visible at the manifest flip or — after a crash at any
// point — is rolled back by Catalog::Recover's orphan sweep. A batch's
// maintenance grows with the ExtVP pairs it touches more than with its
// triples, so a bulk writer amortises it with bigger batches
// (tools/bulkload).

namespace s2rdf::storage {

// One triple in canonical N-Triples term syntax ("<iri>", "_:bnode",
// "\"literal\"...").
struct IngestTriple {
  std::string subject;
  std::string predicate;
  std::string object;
};

struct IngestBatch {
  std::vector<IngestTriple> triples;
};

struct IngestResult {
  // Triples in the submitted batch, before deduplication.
  uint64_t triples_in_batch = 0;
  // Triples actually new (not already in the store, not duplicated
  // within the batch). 0 means the batch was a no-op: no generation was
  // committed.
  uint64_t triples_added = 0;
  // Manifest generation the batch committed as (unchanged on no-op).
  uint64_t generation = 0;
  // VP tables appended to (including newly created predicates).
  uint64_t vp_tables_updated = 0;
  // ExtVP stats entries delta-maintained (materialized, amended or
  // demoted) by this batch.
  uint64_t extvp_tables_updated = 0;
  // Wall-clock time of the whole apply+commit, milliseconds.
  double millis = 0.0;
  // Of `millis`, the Catalog::CommitBatch call: encode, segment write,
  // fsync and manifest flip (0 on a no-op). Maintenance — dedup, VP
  // appends and ExtVP delta semi-joins — is millis - commit_millis.
  double commit_millis = 0.0;
  // Bytes the commit wrote: its segment and its manifest (0 on a no-op
  // and in memory).
  uint64_t bytes_written = 0;
  // Tables the commit wrote as a patch of the rows the batch added to
  // them, and tables it wrote whole (storage/catalog.h says when).
  uint64_t tables_patched = 0;
  uint64_t tables_written_whole = 0;
};

}  // namespace s2rdf::storage

#endif  // S2RDF_STORAGE_INGEST_H_
