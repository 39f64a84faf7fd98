// In-memory spans for the traced run: name, start, end, parent span and
// request id, recorded by the benchmark around its calls into each layer and
// written out as JSONL when the run ends. Self time (a span's duration minus
// the part its children cover) is computed from the recorded spans.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // spans of one request share this id
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct SelfTime {
  uint64_t count = 0;
  int64_t total_ns = 0;  // summed durations
  int64_t self_ns = 0;   // summed durations minus child coverage
};

class SpanRecorder {
 public:
  /// Records a finished span; returns its id. Thread-safe.
  uint64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
               uint64_t parent = 0, uint64_t request = 0);
  /// Reserves an id for a span whose children are recorded before it ends.
  uint64_t NextId();
  /// Records a span under an id from NextId().
  void AddWithId(uint64_t id, const std::string& name, int64_t start_ns,
                 int64_t end_ns, uint64_t parent = 0, uint64_t request = 0);

  size_t size() const;
  std::string ToJsonl() const;
  /// Per-name totals; self time subtracts the union of each span's
  /// children's intervals, clipped to the parent's interval.
  std::map<std::string, SelfTime> SelfTimes() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// Plain-text table of SelfTimes(): spans, self and total milliseconds per
/// span name.
std::string RenderSelfTimes(const SpanRecorder& spans);

/// Records one span on scope exit when a recorder is attached (null = off,
/// and no clock is read).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id, for children recorded while it is open (0 when off).
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::string name_;
  uint64_t id_ = 0;
  uint64_t parent_;
  uint64_t request_;
  int64_t start_ns_ = 0;
};

}  // namespace perfbench
