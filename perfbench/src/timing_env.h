#ifndef PERFBENCH_TIMING_ENV_H_
#define PERFBENCH_TIMING_ENV_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "trace.h"

// A file-I/O environment that forwards to the POSIX Env and counts and
// times every call. The benchmark hands it to the program through the
// program's own seam (S2RdfOptions::env, S2Rdf::Open's env argument,
// Catalog's constructor), so storage I/O is measured without touching
// the program. With a recorder attached, each call also becomes a span
// under whatever benchmark span caused it.

namespace perfbench {

struct IoCounts {
  uint64_t write_ns = 0;   // WriteFile + RenameFile + RemoveFile.
  uint64_t fsync_ns = 0;   // SyncFile + SyncDir.
  uint64_t read_ns = 0;
  uint64_t fsyncs = 0;
  uint64_t files_written = 0;
  uint64_t bytes_written = 0;
  uint64_t reads = 0;
  uint64_t bytes_read = 0;
  uint64_t table_reads = 0;  // Reads of "*.s2tb" table files.

  IoCounts operator-(const IoCounts& o) const;
  IoCounts operator+(const IoCounts& o) const;
};

class TimingEnv : public s2rdf::Env {
 public:
  TimingEnv();

  s2rdf::Status WriteFile(const std::string& path,
                          const std::string& data) override;
  s2rdf::Status ReadFile(const std::string& path, std::string* data) override;
  s2rdf::Status RenameFile(const std::string& from,
                           const std::string& to) override;
  s2rdf::Status RemoveFile(const std::string& path) override;
  s2rdf::Status SyncFile(const std::string& path) override;
  s2rdf::Status SyncDir(const std::string& dir) override;
  s2rdf::Status MakeDirs(const std::string& path) override;
  bool PathExists(const std::string& path) override;
  s2rdf::StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) override;

  IoCounts Counts() const;

  // Spans for every call (nullptr = none).
  void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }
  // While set, the paths of table files read are remembered.
  void set_remember_table_reads(bool on);
  std::vector<std::string> TakeTableReads();

 private:
  s2rdf::Env* base_;
  SpanRecorder* recorder_ = nullptr;
  std::atomic<uint64_t> write_ns_{0}, fsync_ns_{0}, read_ns_{0};
  std::atomic<uint64_t> fsyncs_{0}, files_written_{0}, bytes_written_{0};
  std::atomic<uint64_t> reads_{0}, bytes_read_{0}, table_reads_{0};
  std::mutex mu_;
  bool remember_ = false;
  std::vector<std::string> remembered_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_ENV_H_
