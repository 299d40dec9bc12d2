#include "common/env.h"

namespace s2rdf {

constexpr char Env::kTempSuffix[];

Status Env::WriteFileAtomic(const std::string& path,
                            const std::string& data) {
  // The staging file is left behind on failure by design: a crash can
  // interrupt any step, and recovery deletes "*.tmp" debris anyway.
  const std::string tmp = path + kTempSuffix;
  S2RDF_RETURN_IF_ERROR(WriteFile(tmp, data));
  S2RDF_RETURN_IF_ERROR(SyncFile(tmp));
  S2RDF_RETURN_IF_ERROR(RenameFile(tmp, path));
  // The rename only becomes durable once the parent directory's entry
  // table reaches stable storage.
  return SyncDir(ParentDir(path));
}

Status Env::ReadFileRange(const std::string& path, uint64_t offset,
                          uint64_t length, std::string* data) {
  std::string whole;
  S2RDF_RETURN_IF_ERROR(ReadFile(path, &whole));
  if (offset > whole.size() || length > whole.size() - offset) {
    return OutOfRangeError("range past end of file: " + path);
  }
  *data = whole.substr(offset, length);
  return Status::Ok();
}

std::string Env::ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv;
  return env;
}

}  // namespace s2rdf
