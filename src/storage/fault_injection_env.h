#ifndef S2RDF_STORAGE_FAULT_INJECTION_ENV_H_
#define S2RDF_STORAGE_FAULT_INJECTION_ENV_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

// Deterministic fault injection for the storage layer. Wraps a base Env
// and can
//   - crash after the N-th mutating operation (write/rename/remove/
//     file-sync/dir-sync): the triggering op and everything after it
//     fail with kIoError, simulating process death mid-protocol;
//   - tear the write at the crash point (persist only a prefix), the
//     failure mode atomic rename must mask;
//   - silently flip one bit in the next write (media corruption the
//     checksums must catch);
//   - fail the next K reads with a transient kIoError (EINTR/EIO-style),
//     which the catalog's bounded retry must absorb.
//
// The crash-point matrix test runs a fixed workload once to count its
// mutations, then replays it crashing at every 0 <= k < N and asserts
// that recovery always lands on a pre- or post-write state.
//
// Thread-safe; all state is guarded by one mutex.

namespace s2rdf::storage {

class FaultInjectionEnv : public Env {
 public:
  enum class CrashStyle {
    kClean,  // The crashing op performs nothing.
    kTorn,   // A crashing WriteFile persists only a prefix of the data.
  };

  // Wraps `base` (Env::Default() when null).
  explicit FaultInjectionEnv(Env* base = nullptr);

  // The first `n` mutating ops succeed; the (n+1)-th and all later ones
  // fail. Pass together with set_crash_style to model torn writes.
  void CrashAfterMutations(uint64_t n);
  void set_crash_style(CrashStyle style);

  // Silently flips one bit in the data of the next WriteFile (the write
  // itself reports success).
  void FlipBitInNextWrite();

  // Silently flips one bit in the data of the k-th WriteFile from now
  // (0-based) — the bit-flip leg of the crash-point matrix, which walks
  // the flip across every write site of a workload.
  void FlipBitInWrite(uint64_t k);

  // WriteFile calls attempted so far (counts faulted ones too); the
  // matrix uses this to size the FlipBitInWrite sweep.
  uint64_t write_count() const;

  // The next `k` reads (ReadFile or ReadFileRange) fail with kIoError,
  // then reads recover.
  void FailNextReads(int k);

  // Clears all pending faults and the crashed state (counters persist).
  void ClearFaults();

  // Mutating ops performed successfully so far.
  uint64_t mutation_count() const;
  bool crashed() const;

  // Optional observability hookup: registers this env's counters
  // (reads, successful mutations, faults actually injected) on
  // `registry`, rendered on its /metrics alongside everything else.
  // `registry` must outlive the env; call before serving traffic.
  void AttachMetrics(MetricsRegistry* registry);

  Status WriteFile(const std::string& path, const std::string& data) override;
  Status ReadFile(const std::string& path, std::string* data) override;
  Status ReadFileRange(const std::string& path, uint64_t offset,
                       uint64_t length, std::string* data) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status SyncFile(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  Status MakeDirs(const std::string& path) override;
  bool PathExists(const std::string& path) override;
  StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override;

 private:
  // Returns true when the current mutating op must fail; `torn_out` is
  // set when this op is the crash point of a torn-style crash.
  bool ShouldFailMutation(bool* torn_out) S2RDF_REQUIRES(mu_);
  // Counts one read and consumes a pending transient failure, if any.
  Status NoteRead(const std::string& path) S2RDF_EXCLUDES(mu_);

  Env* base_;
  mutable Mutex mu_;
  uint64_t mutations_ S2RDF_GUARDED_BY(mu_) = 0;
  uint64_t crash_after_ S2RDF_GUARDED_BY(mu_) = 0;
  bool crash_armed_ S2RDF_GUARDED_BY(mu_) = false;
  bool crashed_ S2RDF_GUARDED_BY(mu_) = false;
  CrashStyle style_ S2RDF_GUARDED_BY(mu_) = CrashStyle::kClean;
  bool flip_bit_next_write_ S2RDF_GUARDED_BY(mu_) = false;
  uint64_t writes_ S2RDF_GUARDED_BY(mu_) = 0;
  bool flip_bit_at_write_armed_ S2RDF_GUARDED_BY(mu_) = false;
  uint64_t flip_bit_at_write_ S2RDF_GUARDED_BY(mu_) = 0;
  int transient_read_failures_ S2RDF_GUARDED_BY(mu_) = 0;
  // Null until AttachMetrics; owned by the attached registry.
  Counter* reads_total_ = nullptr;
  Counter* mutations_total_ = nullptr;
  Counter* faults_injected_ = nullptr;
};

}  // namespace s2rdf::storage

#endif  // S2RDF_STORAGE_FAULT_INJECTION_ENV_H_
