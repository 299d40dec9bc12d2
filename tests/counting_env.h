#ifndef S2RDF_TESTS_COUNTING_ENV_H_
#define S2RDF_TESTS_COUNTING_ENV_H_

#include <cstdint>
#include <string>

#include "common/env.h"

// A POSIX Env that counts what reaches the file system: syncs (file and
// directory), files written and bytes read. Tests pin a commit's cost
// with it.

namespace s2rdf::testing {

class CountingEnv : public PosixEnv {
 public:
  Status WriteFile(const std::string& path, const std::string& data) override {
    ++files_written;
    return PosixEnv::WriteFile(path, data);
  }
  Status ReadFile(const std::string& path, std::string* data) override {
    Status status = PosixEnv::ReadFile(path, data);
    if (status.ok()) bytes_read += data->size();
    return status;
  }
  Status ReadFileRange(const std::string& path, uint64_t offset,
                       uint64_t length, std::string* data) override {
    Status status = PosixEnv::ReadFileRange(path, offset, length, data);
    if (status.ok()) bytes_read += data->size();
    return status;
  }
  Status SyncFile(const std::string& path) override {
    ++syncs;
    return PosixEnv::SyncFile(path);
  }
  Status SyncDir(const std::string& dir) override {
    ++syncs;
    return PosixEnv::SyncDir(dir);
  }

  uint64_t syncs = 0;
  uint64_t files_written = 0;
  uint64_t bytes_read = 0;
};

}  // namespace s2rdf::testing

#endif  // S2RDF_TESTS_COUNTING_ENV_H_
