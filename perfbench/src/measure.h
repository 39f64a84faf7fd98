// The benchmark's own arithmetic: quantiles, the capacity staircase, the
// process-minus-generator CPU split, the remote-key share and the per-layer
// ledger. Kept free of sockets and threads so tests can pin each rule.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/stats.h"

namespace perfbench {

/// One reported number with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one benchmark run reports: the metrics plus the output checks.
struct RunResult {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;  // empty = outputs correct
  bool correct() const { return check_failures.empty() && failed == 0; }
};

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double Median(std::vector<double> v);

/// Quantile of a LogHistogram, interpolated geometrically inside the bucket
/// that holds the target rank, so the estimate moves continuously with the
/// samples instead of snapping to bucket edges. Same units as the recorded
/// values; 0 for an empty histogram.
double HistQuantile(const spotcache::LogHistogram& hist, double q);

/// Bucket-wise `after - before` of two histograms of one geometry (counts
/// recorded between two snapshots). Buckets that shrank clamp to zero.
spotcache::LogHistogram HistDelta(const spotcache::LogHistogram& after,
                                  const spotcache::LogHistogram& before);

// --- Capacity staircase. ---------------------------------------------------

/// Offered rate of ladder step `i`: start * growth^i (negative i lies below
/// the start).
double LadderRate(double start_rps, double growth, int i);

struct StairStep {
  double offered_rps = 0.0;
  uint64_t scheduled = 0;
  uint64_t completed = 0;  // without errors
  double achieved_rps = 0.0;
  double p50_us = 0.0;
};

/// The capacity rule: at least `min_completed_share` of the scheduled ops
/// completed without error and the median latency is within the limit.
bool StepPasses(const StairStep& step, double p50_limit_us,
                double min_completed_share);

/// True once the last `stop_after_failures` steps all failed: the staircase
/// has found its knee and further steps would only deepen the backlog.
bool StaircaseDone(const std::vector<StairStep>& steps, double p50_limit_us,
                   double min_completed_share, int stop_after_failures);

/// Index of the highest step that passes (a failed step below it does not
/// disqualify it), or -1 when none does.
int CapacityStep(const std::vector<StairStep>& steps, double p50_limit_us,
                 double min_completed_share);

// --- CPU split. ------------------------------------------------------------

struct CpuSplit {
  double tier_cpu_s = 0.0;       // process CPU minus the generator thread's
  double generator_cpu_s = 0.0;
  double tier_us_per_op = 0.0;
  double generator_us_per_op = 0.0;
};

/// Splits process CPU over a timed pass into the serving tier's share and the
/// load generator's (its thread CPU), each also per completed op. A process
/// figure below the generator's (clock skew between the two clocks) clamps
/// the tier share to zero.
CpuSplit SplitCpu(double process_cpu_s, double generator_cpu_s,
                  uint64_t completed_ops);

// --- Remote keys. ----------------------------------------------------------

/// Share of ops whose owning shard (net::ShardOfKey of prefix+key) differs
/// from the shard their connection landed on. Ops go to connections in
/// round-robin order, as loadgen::RunOpenLoop issues them while every
/// connection is live; `conn_shards[i]` is the shard connection i reported.
/// Connections whose probe failed (negative shard) are skipped.
double RemoteKeyShare(const std::vector<uint64_t>& op_keys,
                      const std::string& key_prefix,
                      const std::vector<int>& conn_shards,
                      uint32_t shard_count);

// --- Ledger. ---------------------------------------------------------------

struct LedgerRow {
  std::string layer;
  double us_per_op = 0.0;
};

struct Ledger {
  double total_us_per_op = 0.0;  // the end-to-end CPU the rows explain
  std::vector<LedgerRow> rows;   // measured layers
  double remainder_us_per_op = 0.0;  // total minus rows, never negative
  bool consistent = true;  // false when the rows alone exceed the total
};

/// Builds the ledger: the remainder is what the measured layers do not
/// explain (syscalls, epoll, the cross-shard hop). It is clamped at zero and
/// `consistent` records whether clamping was needed.
Ledger BuildLedger(double total_us_per_op, std::vector<LedgerRow> rows);

/// Plain-text table: a `title` line naming the total as the base, then each
/// row's cost in `unit` and its share of the total, then the remainder.
std::string RenderLedger(const std::string& title, const Ledger& ledger,
                         const std::string& unit,
                         const std::string& remainder_label);

// --- Process probes. -------------------------------------------------------

double ProcessCpuSeconds();
double ThreadCpuSeconds();
/// Peak resident set (VmHWM) in MiB; 0 when /proc is unreadable.
double PeakRssMb();

}  // namespace perfbench
