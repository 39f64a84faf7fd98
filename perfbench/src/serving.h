// Serving workloads: an in-process tier (sharded server, or proxy in front of
// two upstreams) driven by loadgen::RunOpenLoop on one thread.

#pragma once

#include <cstdint>
#include <string>

#include "perfbench/src/measure.h"

namespace perfbench {

struct ServingWorkload {
  std::string name;
  bool proxy = false;         // ProxyCore in front of two upstreams
  uint64_t num_keys = 0;
  double get_ratio = 0.95;
  uint32_t value_bytes = 100;     // fixed size, or the lower bound...
  uint32_t value_bytes_max = 0;   // ...of a uniform size when larger
  double rate_rps = 0.0;          // fixed offered rate of the p50 pass
  bool expect_all_hits = false;   // the working set fits: zero get misses
  double stair_start_rps = 0.0;   // first step of the capacity staircase
};

/// Runs one serving workload for about `seconds`. With `trace` set it runs
/// the traced measurement instead and reports the per-layer metrics; span
/// JSONL and the ledger table go to `out_dir`.
RunResult RunServing(const ServingWorkload& w, uint64_t seed, int seconds,
                     bool trace, const std::string& out_dir);

}  // namespace perfbench
