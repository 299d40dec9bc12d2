// PosixEnv: the one translation unit in src/ where raw file I/O is
// permitted (s2rdf_lint rule `raw-io` allowlists exactly this file plus
// env.cc). Everything else reaches the filesystem through an Env, so
// the fault-injection harness can interpose on every byte.

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/env.h"

namespace s2rdf {

Status PosixEnv::WriteFile(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return IoError("cannot open for write: " + path + ": " +
                   std::strerror(errno));
  }
  size_t written =
      data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  int close_rc = std::fclose(f);
  if (written != data.size() || close_rc != 0) {
    return IoError("short write: " + path);
  }
  return Status::Ok();
}

Status PosixEnv::ReadFile(const std::string& path, std::string* data) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    // Distinguish a missing file (store integrity problem the caller
    // may quarantine) from a transient read failure (worth retrying).
    if (errno == ENOENT) return NotFoundError("no such file: " + path);
    return IoError("cannot open for read: " + path + ": " +
                   std::strerror(errno));
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    return IoError("cannot stat: " + path);
  }
  data->resize(static_cast<size_t>(size));
  size_t read = size == 0 ? 0 : std::fread(data->data(), 1, data->size(), f);
  std::fclose(f);
  if (read != data->size()) return IoError("short read: " + path);
  return Status::Ok();
}

Status PosixEnv::ReadFileRange(const std::string& path, uint64_t offset,
                               uint64_t length, std::string* data) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return NotFoundError("no such file: " + path);
    return IoError("cannot open for read: " + path + ": " +
                   std::strerror(errno));
  }
  data->resize(static_cast<size_t>(length));
  size_t done = 0;
  while (done < length) {
    ssize_t n = ::pread(fd, data->data() + done, length - done,
                        static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      return IoError("read failed: " + path + ": " + std::strerror(err));
    }
    if (n == 0) {
      ::close(fd);
      return OutOfRangeError("range past end of file: " + path);
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return Status::Ok();
}

Status PosixEnv::RenameFile(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return IoError("rename failed: " + from + " -> " + to + ": " +
                   std::strerror(errno));
  }
  return Status::Ok();
}

Status PosixEnv::SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY);
  // Best effort; some filesystems reject directory fsync entirely.
  if (fd < 0) return Status::Ok();
  (void)::fsync(fd);
  ::close(fd);
  return Status::Ok();
}

Status PosixEnv::RemoveFile(const std::string& path) {
  if (unlink(path.c_str()) != 0 && errno != ENOENT) {
    return IoError("unlink failed: " + path + ": " + std::strerror(errno));
  }
  return Status::Ok();
}

Status PosixEnv::SyncFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return IoError("cannot open for sync: " + path + ": " +
                   std::strerror(errno));
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return IoError("fsync failed: " + path);
  return Status::Ok();
}

Status PosixEnv::MakeDirs(const std::string& path) {
  if (path.empty()) return InvalidArgumentError("empty directory path");
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      partial = path.substr(0, i == path.size() ? i : i + 1);
      if (partial.empty() || partial == "/") continue;
      if (mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
        return IoError("mkdir failed: " + partial + ": " +
                       std::strerror(errno));
      }
    }
  }
  return Status::Ok();
}

bool PosixEnv::PathExists(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0;
}

uint64_t PosixEnv::FileSizeBytes(const std::string& path) {
  struct stat st;
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

StatusOr<std::vector<std::string>> PosixEnv::ListDir(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return IoError("opendir failed: " + dir + ": " + std::strerror(errno));
  }
  std::vector<std::string> names;
  while (struct dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    std::string full = dir + "/" + name;
    if (stat(full.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      names.push_back(name);
    }
  }
  closedir(d);
  return names;
}

}  // namespace s2rdf
