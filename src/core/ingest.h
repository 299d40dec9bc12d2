#ifndef S2RDF_CORE_INGEST_H_
#define S2RDF_CORE_INGEST_H_

#include <cstdint>
#include <set>
#include <string_view>

#include "common/status.h"
#include "core/layout_names.h"
#include "rdf/dictionary.h"
#include "storage/catalog.h"
#include "storage/ingest.h"

// Incremental ingest with ExtVP delta maintenance (ROADMAP: "incremental
// ExtVP maintenance under updates"), and lazy first use. Both run the one
// per-pair ExtVP kernel (core/extvp_kernel.h) that also builds the eager
// store; this module appends a batch of triples and repairs only the
// reductions the batch can actually change, via delta semi-joins:
//
//   - the new triples of predicate p1 are probed against the (updated)
//     VP_p2 key sets — rows the batch adds to ExtVP_corr_p1|p2;
//   - the existing VP_p1 rows are re-probed only where the batch added
//     *new* join keys to VP_p2 — rows old data gains retroactively;
//   - every pair whose left VP grew has its SF denominator re-evaluated,
//     which can demote a reduction to stats-only (SF hit 1.0) or
//     materialize a previously pruned one (SF dropped below the
//     threshold).
//
// Every batch is maintained this way before it commits, so no reduction
// ever lags its VP tables. Rows are emitted in the updated VP_p1's row
// order — existing rows first, batch rows in arrival order — which is
// exactly the order a full rebuild over the concatenated triple stream
// produces, so every generation's tables are byte-identical to a full
// rebuild (the crash-matrix test's oracle).
//
// All changed tables commit through one Catalog::CommitBatch, i.e. one
// atomic manifest flip, and so do the reductions one lazy first use
// computes. IngestResult::commit_millis is that call's share of the
// batch's millis.

namespace s2rdf::core {

struct IngestConfig {
  // ExtVP materialization threshold; must match the store's build-time
  // threshold or delta decisions diverge from a rebuild's.
  double sf_threshold = 1.0;
  // "Pay as you go" stores: maintain only reductions that already have
  // stats entries; pairs never requested stay uncomputed and are built
  // from the updated VP tables on first use.
  bool lazy_extvp = false;
};

// Encodes, deduplicates and applies `batch` to the catalog's triples
// table, VP tables and dependent ExtVP reductions, committing
// atomically. New terms are interned into `dict`; the commit
// carries the terms with ids from `*dict_committed` on as its dictionary
// blob, so the tables never reference a term the stored dictionary
// lacks, and advances `*dict_committed` past them once it lands.
// Requires the triples table ("triples") to exist.
StatusOr<storage::IngestResult> ApplyIngestBatch(
    const storage::IngestBatch& batch, const IngestConfig& config,
    rdf::Dictionary* dict, rdf::TermId* dict_committed,
    storage::Catalog* catalog);

// "Pay as you go" first use (Sec. 7): computes each reduction of `pairs`
// that `state` has no entry for from the VP tables of `state` (a
// quarantined one rebuilt from the triples table), and commits them in
// one CommitBatch — stored or statistics-only by ClassifyExtVp at
// `sf_threshold`, an empty one as a 0-row entry, so that every computed
// pair has an entry that survives a reopen. The caller serializes this
// with every other commit, ingest's included: a pair computed from one
// generation must not commit while a batch commits the next.
Status CommitExtVpPairs(const std::set<ExtVpPair>& pairs, double sf_threshold,
                        const storage::CatalogState& state,
                        storage::Catalog* catalog);

// Parses N-Triples text into an IngestBatch (the HTTP and CLI entry
// points accept raw N-Triples bodies).
StatusOr<storage::IngestBatch> MakeBatchFromNTriples(std::string_view text);

}  // namespace s2rdf::core

#endif  // S2RDF_CORE_INGEST_H_
