#include "perfbench/src/measure.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/net/sharding.h"

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double HistQuantile(const spotcache::LogHistogram& hist, double q) {
  const std::vector<uint64_t>& buckets = hist.buckets();
  uint64_t total = 0;
  for (const uint64_t c : buckets) {
    total += c;
  }
  if (total == 0) {
    return 0.0;
  }
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  double below = 0.0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    const double c = static_cast<double>(buckets[b]);
    if (c == 0.0 || below + c < rank) {
      below += c;
      continue;
    }
    const double frac = std::clamp((rank - below) / c, 0.0, 1.0);
    const double hi = hist.BucketUpperBound(b);
    if (b == 0) {
      return hi * frac;
    }
    const double lo = hist.BucketUpperBound(b - 1);
    return lo * std::pow(hi / lo, frac);
  }
  return hist.BucketUpperBound(buckets.size() - 1);
}

spotcache::LogHistogram HistDelta(const spotcache::LogHistogram& after,
                                  const spotcache::LogHistogram& before) {
  spotcache::LogHistogram out(after.min_value(), after.growth());
  const auto& a = after.buckets();
  const auto& b = before.buckets();
  const double half_step = std::sqrt(after.growth());
  for (size_t i = 0; i < a.size(); ++i) {
    const uint64_t prev = i < b.size() ? b[i] : 0;
    if (a[i] <= prev) {
      continue;
    }
    // Record at the bucket's geometric middle so the count lands in bucket i.
    const double value = i == 0 ? after.min_value() * 0.5
                                : after.BucketUpperBound(i) / half_step;
    out.RecordN(value, a[i] - prev);
  }
  return out;
}

double LadderRate(double start_rps, double growth, int i) {
  return start_rps * std::pow(growth, i);
}

bool StepPasses(const StairStep& step, double p50_limit_us,
                double min_completed_share) {
  if (step.scheduled == 0) {
    return false;
  }
  const double share = static_cast<double>(step.completed) /
                       static_cast<double>(step.scheduled);
  return share >= min_completed_share && step.p50_us <= p50_limit_us;
}

bool StaircaseDone(const std::vector<StairStep>& steps, double p50_limit_us,
                   double min_completed_share, int stop_after_failures) {
  if (stop_after_failures <= 0 ||
      steps.size() < static_cast<size_t>(stop_after_failures)) {
    return false;
  }
  for (size_t i = steps.size() - static_cast<size_t>(stop_after_failures);
       i < steps.size(); ++i) {
    if (StepPasses(steps[i], p50_limit_us, min_completed_share)) {
      return false;
    }
  }
  return true;
}

int CapacityStep(const std::vector<StairStep>& steps, double p50_limit_us,
                 double min_completed_share) {
  for (size_t i = steps.size(); i-- > 0;) {
    if (StepPasses(steps[i], p50_limit_us, min_completed_share)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

CpuSplit SplitCpu(double process_cpu_s, double generator_cpu_s,
                  uint64_t completed_ops) {
  CpuSplit s;
  s.generator_cpu_s = std::max(generator_cpu_s, 0.0);
  s.tier_cpu_s = std::max(process_cpu_s - s.generator_cpu_s, 0.0);
  if (completed_ops > 0) {
    const double n = static_cast<double>(completed_ops);
    s.tier_us_per_op = s.tier_cpu_s * 1e6 / n;
    s.generator_us_per_op = s.generator_cpu_s * 1e6 / n;
  }
  return s;
}

double RemoteKeyShare(const std::vector<uint64_t>& op_keys,
                      const std::string& key_prefix,
                      const std::vector<int>& conn_shards,
                      uint32_t shard_count) {
  if (op_keys.empty() || conn_shards.empty()) {
    return 0.0;
  }
  uint64_t counted = 0;
  uint64_t remote = 0;
  std::string key = key_prefix;
  for (size_t i = 0; i < op_keys.size(); ++i) {
    const int landed = conn_shards[i % conn_shards.size()];
    if (landed < 0) {
      continue;
    }
    key.resize(key_prefix.size());
    key += std::to_string(op_keys[i]);
    ++counted;
    if (spotcache::net::ShardOfKey(key, shard_count) !=
        static_cast<uint32_t>(landed)) {
      ++remote;
    }
  }
  return counted == 0 ? 0.0
                      : static_cast<double>(remote) /
                            static_cast<double>(counted);
}

Ledger BuildLedger(double total_us_per_op, std::vector<LedgerRow> rows) {
  Ledger l;
  l.total_us_per_op = total_us_per_op;
  double explained = 0.0;
  for (const LedgerRow& r : rows) {
    explained += r.us_per_op;
  }
  l.rows = std::move(rows);
  l.consistent = explained <= total_us_per_op;
  l.remainder_us_per_op = std::max(total_us_per_op - explained, 0.0);
  return l;
}

std::string RenderLedger(const std::string& title, const Ledger& ledger,
                         const std::string& unit,
                         const std::string& remainder_label) {
  std::string out;
  char line[256];
  const double base = ledger.total_us_per_op;
  std::snprintf(line, sizeof(line), "%s %.3f %s%s\n", title.c_str(), base,
                unit.c_str(),
                ledger.consistent ? "" : " (layers exceed the base)");
  out += line;
  auto row = [&](const std::string& name, double us) {
    std::snprintf(line, sizeof(line), "  %-26s %9.4f %s  %6.2f%% of %.3f %s\n",
                  name.c_str(), us, unit.c_str(),
                  base > 0.0 ? 100.0 * us / base : 0.0, base, unit.c_str());
    out += line;
  };
  for (const LedgerRow& r : ledger.rows) {
    row(r.layer, r.us_per_op);
  }
  row(remainder_label, ledger.remainder_us_per_op);
  return out;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace perfbench
