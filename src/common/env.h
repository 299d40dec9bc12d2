#ifndef S2RDF_COMMON_ENV_H_
#define S2RDF_COMMON_ENV_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

// Injectable file-I/O environment — the single choke point for file
// access in the library, and the seam the fault-injection harness plugs
// into. On HDFS the paper gets replication and atomic rename for free;
// here every durable write site (segments of table and dictionary blobs,
// manifest generations, the CURRENT pointer, MapReduce spill files) goes
// through an Env so that crashes, torn writes and bit flips can be injected
// deterministically and the recovery protocol proven against them.
//
// Raw I/O primitives (fopen, ::open, std::ofstream, ...) are allowed
// ONLY in the PosixEnv implementation (common/posix_env.cc); everything
// else must take an Env. This is machine-enforced by the `raw-io` rule
// of tools/lint/s2rdf_lint — code that bypassed the Env would silently
// escape the fault-injection matrix.
//
// Durability protocol: WriteFileAtomic stages the data in "<path>.tmp",
// fsyncs it, then renames over the destination. A crash at any point
// leaves either the old file or the new file — never a torn one; the
// only debris is a stale "*.tmp" that startup recovery deletes.

namespace s2rdf {

class Env {
 public:
  virtual ~Env() = default;

  // Writes `data` to `path` in place (no atomicity). Prefer
  // WriteFileAtomic for anything that must survive a crash.
  virtual Status WriteFile(const std::string& path,
                           const std::string& data) = 0;

  // Reads the whole file. kNotFound when the file does not exist,
  // kIoError for (possibly transient) read failures.
  virtual Status ReadFile(const std::string& path, std::string* data) = 0;

  // Reads `length` bytes starting at byte `offset` — one table's blob
  // inside a segment file. Codes as ReadFile, plus kOutOfRange when the
  // range runs past the end of the file (a truncated file, not a
  // transient fault). This fallback reads the whole file and cuts the
  // range out; PosixEnv reads only the range.
  virtual Status ReadFileRange(const std::string& path, uint64_t offset,
                               uint64_t length, std::string* data);

  // Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;

  // Removes a file; OK if it does not exist.
  virtual Status RemoveFile(const std::string& path) = 0;

  // Flushes file contents to stable storage.
  virtual Status SyncFile(const std::string& path) = 0;

  // Flushes directory metadata (entries created/renamed within `dir`)
  // to stable storage. A rename is not durable until the parent
  // directory is synced; WriteFileAtomic calls this after its rename so
  // the manifest-flip step is itself a crash-injectable site.
  virtual Status SyncDir(const std::string& dir) = 0;

  virtual Status MakeDirs(const std::string& path) = 0;
  virtual bool PathExists(const std::string& path) = 0;
  virtual StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) = 0;

  // The crash-safe write: temp file + fsync + rename, composed from the
  // virtual primitives so fault injection sees every step.
  Status WriteFileAtomic(const std::string& path, const std::string& data);

  // Parent directory of `path` ("." when it has no slash) — the
  // directory SyncDir must flush for a rename of `path` to be durable.
  static std::string ParentDir(const std::string& path);

  // Suffix of staging files produced by WriteFileAtomic; recovery treats
  // any file ending in it as deletable debris.
  static constexpr char kTempSuffix[] = ".tmp";

  // Process-wide POSIX environment (never deleted).
  static Env* Default();
};

// The real thing: thin POSIX wrappers plus fsync-backed durability.
// Implemented in common/posix_env.cc, the one file where raw I/O lives.
class PosixEnv : public Env {
 public:
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

  // Size in bytes of the file at `path`, or 0 if unreadable. Not part
  // of the Env interface (stats are not a fault-injection surface).
  static uint64_t FileSizeBytes(const std::string& path);
};

}  // namespace s2rdf

#endif  // S2RDF_COMMON_ENV_H_
