#include "report.h"

#include <sys/vfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "arith.h"
#include "common/build_info.h"

namespace perfbench {

namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string JsonString(const std::string& raw) {
  std::string out = "\"";
  for (char c : raw) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string FsTypeName(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x6969:
      return "nfs";
    case 0x65735546:
      return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string FormatValue(double v) {
  if (!std::isfinite(v) || v >= kFailedLatency) v = 1e12;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void RunOutput::Fail(const std::string& why) {
  correct = false;
  notes.push_back("FAIL: " + why);
}

std::string Fmt(const char* format, double a, double b, double c, double d) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d);
  return buf;
}

std::string Series(const std::string& name, const std::vector<double>& values) {
  std::string out = name;
  for (double v : values) out += Fmt(" %.4g", v);
  return out;
}

double PeakRssMb() {
  std::istringstream in(ReadWholeFile("/proc/self/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB.
    }
  }
  return 0.0;
}

int Nproc() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

std::string HostBlockJson(const RunConfig& config,
                          const std::string& store_dir) {
  std::string cpu = "unknown";
  std::istringstream in(ReadWholeFile("/proc/cpuinfo"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  const s2rdf::BuildInfo& build = s2rdf::GetBuildInfo();
  return "{\"nproc\": " + std::to_string(Nproc()) +
         ", \"cpu\": " + JsonString(cpu) +
         ", \"build_type\": " + JsonString(build.build_type) +
         ", \"compiler\": " + JsonString(build.compiler) +
         ", \"git_sha\": " + JsonString(build.git_sha) +
         ", \"workload\": " + JsonString(config.workload) +
         ", \"seed\": " + std::to_string(config.seed) +
         ", \"trace\": " + (config.trace ? "true" : "false") +
         ", \"store_fs\": " + JsonString(FsTypeName(store_dir)) + "}";
}

std::string ResultLine(const RunOutput& out) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i > 0 ? ", " : "") + JsonString(m.name) +
            ": {\"value\": " + FormatValue(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  return json;
}

void CheckExactCounts(const RunConfig& config, const std::string& dir,
                      RunOutput* out) {
  if (out->exact_counts.empty()) return;
  // Key the record by the binary's content so a rebuilt program starts
  // a fresh record instead of tripping over the old one.
  const uint64_t binary = HashBytes(ReadWholeFile("/proc/self/exe"));
  char name[160];
  std::snprintf(name, sizeof(name), "%s/counts-%s-%s-%llu-%016llx.txt",
                dir.c_str(), config.workload.c_str(),
                config.trace ? "traced" : "plain",
                static_cast<unsigned long long>(config.seed),
                static_cast<unsigned long long>(binary));
  std::string rendered;
  for (const auto& [key, value] : out->exact_counts) {
    rendered += key + " " + std::to_string(value) + "\n";
  }
  const std::string previous = ReadWholeFile(name);
  if (previous.empty()) {
    std::ofstream(name, std::ios::binary) << rendered;
    out->Note("exact counts recorded for this seed (" +
              std::to_string(out->exact_counts.size()) + " counts)");
  } else if (previous != rendered) {
    out->Fail("exact counts differ from an earlier run of this seed:\n" +
              previous + "--- now ---\n" + rendered);
  } else {
    out->Note("exact counts repeat an earlier run of this seed (" +
              std::to_string(out->exact_counts.size()) + " counts)");
  }
}

}  // namespace perfbench
