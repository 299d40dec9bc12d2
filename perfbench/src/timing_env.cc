#include "timing_env.h"

namespace perfbench {

namespace {

uint64_t ElapsedNs(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

bool IsTableFile(const std::string& path) {
  return path.size() > 5 && path.compare(path.size() - 5, 5, ".s2tb") == 0;
}

}  // namespace

IoCounts IoCounts::operator-(const IoCounts& o) const {
  IoCounts d;
  d.write_ns = write_ns - o.write_ns;
  d.fsync_ns = fsync_ns - o.fsync_ns;
  d.read_ns = read_ns - o.read_ns;
  d.fsyncs = fsyncs - o.fsyncs;
  d.files_written = files_written - o.files_written;
  d.bytes_written = bytes_written - o.bytes_written;
  d.reads = reads - o.reads;
  d.bytes_read = bytes_read - o.bytes_read;
  d.table_reads = table_reads - o.table_reads;
  return d;
}

IoCounts IoCounts::operator+(const IoCounts& o) const {
  IoCounts s = *this;
  s.write_ns += o.write_ns;
  s.fsync_ns += o.fsync_ns;
  s.read_ns += o.read_ns;
  s.fsyncs += o.fsyncs;
  s.files_written += o.files_written;
  s.bytes_written += o.bytes_written;
  s.reads += o.reads;
  s.bytes_read += o.bytes_read;
  s.table_reads += o.table_reads;
  return s;
}

TimingEnv::TimingEnv() : base_(s2rdf::Env::Default()) {}

s2rdf::Status TimingEnv::WriteFile(const std::string& path,
                                   const std::string& data) {
  ScopedSpan span(recorder_, "env.write");
  const auto start = Clock::now();
  s2rdf::Status s = base_->WriteFile(path, data);
  write_ns_ += ElapsedNs(start);
  files_written_ += 1;
  bytes_written_ += data.size();
  return s;
}

s2rdf::Status TimingEnv::ReadFile(const std::string& path,
                                  std::string* data) {
  ScopedSpan span(recorder_, "env.read");
  const auto start = Clock::now();
  s2rdf::Status s = base_->ReadFile(path, data);
  read_ns_ += ElapsedNs(start);
  reads_ += 1;
  if (s.ok()) bytes_read_ += data->size();
  if (IsTableFile(path)) {
    table_reads_ += 1;
    std::lock_guard<std::mutex> lock(mu_);
    if (remember_) remembered_.push_back(path);
  }
  return s;
}

s2rdf::Status TimingEnv::RenameFile(const std::string& from,
                                    const std::string& to) {
  ScopedSpan span(recorder_, "env.rename");
  const auto start = Clock::now();
  s2rdf::Status s = base_->RenameFile(from, to);
  write_ns_ += ElapsedNs(start);
  return s;
}

s2rdf::Status TimingEnv::RemoveFile(const std::string& path) {
  ScopedSpan span(recorder_, "env.remove");
  const auto start = Clock::now();
  s2rdf::Status s = base_->RemoveFile(path);
  write_ns_ += ElapsedNs(start);
  return s;
}

s2rdf::Status TimingEnv::SyncFile(const std::string& path) {
  ScopedSpan span(recorder_, "env.fsync");
  const auto start = Clock::now();
  s2rdf::Status s = base_->SyncFile(path);
  fsync_ns_ += ElapsedNs(start);
  fsyncs_ += 1;
  return s;
}

s2rdf::Status TimingEnv::SyncDir(const std::string& dir) {
  ScopedSpan span(recorder_, "env.fsync_dir");
  const auto start = Clock::now();
  s2rdf::Status s = base_->SyncDir(dir);
  fsync_ns_ += ElapsedNs(start);
  fsyncs_ += 1;
  return s;
}

s2rdf::Status TimingEnv::MakeDirs(const std::string& path) {
  return base_->MakeDirs(path);
}

bool TimingEnv::PathExists(const std::string& path) {
  return base_->PathExists(path);
}

s2rdf::StatusOr<std::vector<std::string>> TimingEnv::ListDir(
    const std::string& dir) {
  return base_->ListDir(dir);
}

IoCounts TimingEnv::Counts() const {
  IoCounts c;
  c.write_ns = write_ns_.load();
  c.fsync_ns = fsync_ns_.load();
  c.read_ns = read_ns_.load();
  c.fsyncs = fsyncs_.load();
  c.files_written = files_written_.load();
  c.bytes_written = bytes_written_.load();
  c.reads = reads_.load();
  c.bytes_read = bytes_read_.load();
  c.table_reads = table_reads_.load();
  return c;
}

void TimingEnv::set_remember_table_reads(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  remember_ = on;
}

std::vector<std::string> TimingEnv::TakeTableReads() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(remembered_);
}

}  // namespace perfbench
