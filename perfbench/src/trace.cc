#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace perfbench {

std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<uint64_t, int64_t> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      // Union of the child intervals, clipped to the parent.
      int64_t cur_start = 0;
      int64_t cur_end = -1;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (open && a <= cur_end) {
          cur_end = std::max(cur_end, b);
        } else {
          if (open) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
          open = true;
        }
      }
      if (open) covered += cur_end - cur_start;
    }
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::string RenderChromeTrace(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans) {
    std::string name;
    for (char c : s.name) {
      if (c == '"' || c == '\\') name += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) name += c;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}}",
                  first ? "" : ",\n", name.substr(0, 96).c_str(), s.thread,
                  static_cast<double>(s.start_ns) / 1000.0,
                  static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanRecorder::ThreadIndex() {
  auto [it, inserted] = threads_.emplace(
      std::this_thread::get_id(), static_cast<int>(threads_.size()) + 1);
  return it->second;
}

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t parent,
                             uint64_t request) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = next_id_++;
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_ns = now;
  s.end_ns = now;
  s.thread = ThreadIndex();
  open_[s.id] = spans_.size();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = now;
  open_.erase(it);
}

uint64_t SpanRecorder::Add(const std::string& name, uint64_t parent,
                           uint64_t request, Clock::time_point start,
                           Clock::time_point end) {
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = next_id_++;
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_ns = duration_cast<nanoseconds>(start - origin_).count();
  s.end_ns = duration_cast<nanoseconds>(end - origin_).count();
  s.thread = ThreadIndex();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

uint64_t SpanRecorder::CurrentParent() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = scopes_.find(std::this_thread::get_id());
  if (it != scopes_.end() && !it->second.empty()) return it->second.back().first;
  return latest_scope_.first;
}

uint64_t SpanRecorder::CurrentRequest() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = scopes_.find(std::this_thread::get_id());
  if (it != scopes_.end() && !it->second.empty()) {
    return it->second.back().second;
  }
  return latest_scope_.second;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const std::string& name,
                       uint64_t request)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  if (request == 0) request = recorder_->CurrentRequest();
  id_ = recorder_->Begin(name, recorder_->CurrentParent(), request);
  std::lock_guard<std::mutex> lock(recorder_->mu_);
  recorder_->scopes_[std::this_thread::get_id()].push_back({id_, request});
  recorder_->latest_scope_ = {id_, request};
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  recorder_->End(id_);
  std::lock_guard<std::mutex> lock(recorder_->mu_);
  auto& stack = recorder_->scopes_[std::this_thread::get_id()];
  if (!stack.empty()) stack.pop_back();
  recorder_->latest_scope_ =
      stack.empty() ? std::pair<uint64_t, uint64_t>{0, 0} : stack.back();
}

}  // namespace perfbench
