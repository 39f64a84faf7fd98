#include "perfbench/src/spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanRecorder::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::AddWithId(uint64_t id, const std::string& name,
                             int64_t start_ns, int64_t end_ns, uint64_t parent,
                             uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({id, parent, request, name, start_ns, end_ns});
}

uint64_t SpanRecorder::Add(const std::string& name, int64_t start_ns,
                           int64_t end_ns, uint64_t parent, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back({id, parent, request, name, start_ns, end_ns});
  return id;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string SpanRecorder::ToJsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  int64_t origin = 0;
  for (const Span& s : spans_) {
    origin = origin == 0 ? s.start_ns : std::min(origin, s.start_ns);
  }
  for (const Span& s : spans_) {
    out += "{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) + ",\"name\":\"" +
           s.name + "\",\"start_ns\":" + std::to_string(s.start_ns - origin) +
           ",\"end_ns\":" + std::to_string(s.end_ns - origin) + "}\n";
  }
  return out;
}

std::map<std::string, SelfTime> SpanRecorder::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans_) {
    const int64_t dur = std::max<int64_t>(s.end_ns - s.start_ns, 0);
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cursor = s.start_ns;
      for (const auto& [lo, hi] : iv) {
        const int64_t a = std::max(lo, cursor);
        const int64_t b = std::min(hi, s.end_ns);
        if (b > a) {
          covered += b - a;
          cursor = b;
        }
      }
    }
    SelfTime& t = out[s.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - covered;
  }
  return out;
}

std::string RenderSelfTimes(const SpanRecorder& spans) {
  std::string out = "span self time (traced run):\n";
  char line[256];
  for (const auto& [name, st] : spans.SelfTimes()) {
    std::snprintf(line, sizeof(line),
                  "  %-30s %7llu spans  self %10.3f ms  total %10.3f ms\n",
                  name.c_str(), static_cast<unsigned long long>(st.count),
                  static_cast<double>(st.self_ns) * 1e-6,
                  static_cast<double>(st.total_ns) * 1e-6);
    out += line;
  }
  return out;
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, std::string name, uint64_t parent,
                       uint64_t request)
    : rec_(rec), name_(std::move(name)), parent_(parent), request_(request) {
  if (rec_ != nullptr) {
    id_ = rec_->NextId();
    start_ns_ = NowNs();
  }
}

ScopedSpan::~ScopedSpan() {
  if (rec_ != nullptr) {
    rec_->AddWithId(id_, name_, start_ns_, NowNs(), parent_, request_);
  }
}

}  // namespace perfbench
