#include "storage/fault_injection_env.h"

#include "common/mutex.h"

namespace s2rdf::storage {

FaultInjectionEnv::FaultInjectionEnv(Env* base)
    : base_(base != nullptr ? base : Env::Default()) {}

void FaultInjectionEnv::CrashAfterMutations(uint64_t n) {
  MutexLock lock(&mu_);
  crash_after_ = n;
  crash_armed_ = true;
  crashed_ = false;
  mutations_ = 0;
}

void FaultInjectionEnv::set_crash_style(CrashStyle style) {
  MutexLock lock(&mu_);
  style_ = style;
}

void FaultInjectionEnv::FlipBitInNextWrite() {
  MutexLock lock(&mu_);
  flip_bit_next_write_ = true;
}

void FaultInjectionEnv::FlipBitInWrite(uint64_t k) {
  MutexLock lock(&mu_);
  flip_bit_at_write_armed_ = true;
  flip_bit_at_write_ = k;
  writes_ = 0;
}

uint64_t FaultInjectionEnv::write_count() const {
  MutexLock lock(&mu_);
  return writes_;
}

void FaultInjectionEnv::FailNextReads(int k) {
  MutexLock lock(&mu_);
  transient_read_failures_ = k;
}

void FaultInjectionEnv::ClearFaults() {
  MutexLock lock(&mu_);
  crash_armed_ = false;
  crashed_ = false;
  flip_bit_next_write_ = false;
  flip_bit_at_write_armed_ = false;
  transient_read_failures_ = 0;
}

uint64_t FaultInjectionEnv::mutation_count() const {
  MutexLock lock(&mu_);
  return mutations_;
}

bool FaultInjectionEnv::crashed() const {
  MutexLock lock(&mu_);
  return crashed_;
}

void FaultInjectionEnv::AttachMetrics(MetricsRegistry* registry) {
  reads_total_ = registry->AddCounter(
      "s2rdf_faultenv_reads_total",
      "ReadFile and ReadFileRange calls through the fault env.");
  mutations_total_ = registry->AddCounter(
      "s2rdf_faultenv_mutations_total",
      "Mutating ops (write/rename/remove/sync) that succeeded.");
  faults_injected_ = registry->AddCounter(
      "s2rdf_faultenv_faults_injected_total",
      "Faults actually delivered: crash-point failures, bit flips, "
      "transient read errors.");
}

bool FaultInjectionEnv::ShouldFailMutation(bool* torn_out) {
  *torn_out = false;
  if (crashed_) return true;
  if (crash_armed_ && mutations_ >= crash_after_) {
    crashed_ = true;  // This op is the crash point.
    *torn_out = style_ == CrashStyle::kTorn;
    if (faults_injected_ != nullptr) faults_injected_->Increment();
    return true;
  }
  ++mutations_;
  if (mutations_total_ != nullptr) mutations_total_->Increment();
  return false;
}

Status FaultInjectionEnv::WriteFile(const std::string& path,
                                    const std::string& data) {
  bool flip;
  bool torn;
  bool fail;
  {
    MutexLock lock(&mu_);
    fail = ShouldFailMutation(&torn);
    flip = !fail && flip_bit_next_write_;
    if (flip) flip_bit_next_write_ = false;
    if (!fail && flip_bit_at_write_armed_ && writes_ == flip_bit_at_write_) {
      flip = true;
      flip_bit_at_write_armed_ = false;
    }
    ++writes_;
  }
  if (flip && faults_injected_ != nullptr) faults_injected_->Increment();
  if (fail) {
    if (torn && !data.empty()) {
      // The crash interrupted the write mid-stream: a prefix landed.
      (void)base_->WriteFile(path, data.substr(0, data.size() / 2));
    }
    return IoError("injected crash: write " + path);
  }
  if (flip && !data.empty()) {
    std::string corrupted = data;
    corrupted[corrupted.size() / 2] ^= 0x10;
    return base_->WriteFile(path, corrupted);
  }
  return base_->WriteFile(path, data);
}

Status FaultInjectionEnv::NoteRead(const std::string& path) {
  if (reads_total_ != nullptr) reads_total_->Increment();
  MutexLock lock(&mu_);
  if (transient_read_failures_ > 0) {
    --transient_read_failures_;
    if (faults_injected_ != nullptr) faults_injected_->Increment();
    return IoError("injected transient read error: " + path);
  }
  return Status::Ok();
}

Status FaultInjectionEnv::ReadFile(const std::string& path,
                                   std::string* data) {
  S2RDF_RETURN_IF_ERROR(NoteRead(path));
  return base_->ReadFile(path, data);
}

Status FaultInjectionEnv::ReadFileRange(const std::string& path,
                                        uint64_t offset, uint64_t length,
                                        std::string* data) {
  S2RDF_RETURN_IF_ERROR(NoteRead(path));
  return base_->ReadFileRange(path, offset, length, data);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  bool torn;
  {
    MutexLock lock(&mu_);
    if (ShouldFailMutation(&torn)) {
      return IoError("injected crash: rename " + from);
    }
  }
  return base_->RenameFile(from, to);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  bool torn;
  {
    MutexLock lock(&mu_);
    if (ShouldFailMutation(&torn)) {
      return IoError("injected crash: remove " + path);
    }
  }
  return base_->RemoveFile(path);
}

Status FaultInjectionEnv::SyncFile(const std::string& path) {
  bool torn;
  {
    MutexLock lock(&mu_);
    if (ShouldFailMutation(&torn)) {
      return IoError("injected crash: sync " + path);
    }
  }
  return base_->SyncFile(path);
}

Status FaultInjectionEnv::SyncDir(const std::string& dir) {
  bool torn;
  {
    MutexLock lock(&mu_);
    if (ShouldFailMutation(&torn)) {
      return IoError("injected crash: syncdir " + dir);
    }
  }
  return base_->SyncDir(dir);
}

Status FaultInjectionEnv::MakeDirs(const std::string& path) {
  {
    MutexLock lock(&mu_);
    if (crashed_) return IoError("injected crash: mkdir " + path);
  }
  return base_->MakeDirs(path);
}

bool FaultInjectionEnv::PathExists(const std::string& path) {
  return base_->PathExists(path);
}

StatusOr<std::vector<std::string>> FaultInjectionEnv::ListDir(
    const std::string& dir) {
  return base_->ListDir(dir);
}

}  // namespace s2rdf::storage
