// perfbench: the repository's benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//   perfbench --print-pins
//
// Runs one workload and prints, as the last line of stdout, one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. With
// --trace 0 the metrics are the end-to-end ones the run measured; with
// --trace 1 the traced run's per-layer ones. Exits 1 when any output check
// fails.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "perfbench/src/control.h"
#include "perfbench/src/measure.h"
#include "perfbench/src/serving.h"

namespace {

using perfbench::RunResult;
using perfbench::ServingWorkload;

ServingWorkload DirectRead() {
  ServingWorkload w;
  w.name = "direct_read";
  w.num_keys = 100'000;
  w.get_ratio = 0.95;
  w.value_bytes = 100;
  w.rate_rps = 100'000;
  w.expect_all_hits = true;
  w.stair_start_rps = 500'000;
  return w;
}

ServingWorkload DirectChurn() {
  ServingWorkload w;
  w.name = "direct_churn";
  w.num_keys = 200'000;
  w.get_ratio = 0.5;
  w.value_bytes = 256;
  w.value_bytes_max = 4096;
  w.rate_rps = 50'000;
  w.stair_start_rps = 250'000;
  return w;
}

ServingWorkload ProxyHop() {
  ServingWorkload w;
  w.name = "proxy_hop";
  w.proxy = true;
  w.num_keys = 10'000;
  w.get_ratio = 0.9;
  w.value_bytes = 100;
  w.rate_rps = 10'000;
  w.stair_start_rps = 10'000;
  w.expect_all_hits = true;
  return w;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<direct_read|direct_churn|proxy_hop|control_replan> --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n"
               "       perfbench --print-pins\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // As spotcache_server and spotcache_proxy do: a write to a connection the
  // peer closed must fail with EPIPE, not end the process. Overloaded
  // staircase steps, where the generator abandons in-flight ops at its drain
  // deadline, hit this.
  std::signal(SIGPIPE, SIG_IGN);
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--print-pins") {
      perfbench::PrintControlPins();
      return 0;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (seconds < 1) {
    return Usage();
  }
  std::filesystem::create_directories(out_dir);

  RunResult result;
  if (workload == "direct_read") {
    result = perfbench::RunServing(DirectRead(), seed, seconds, trace, out_dir);
  } else if (workload == "direct_churn") {
    result = perfbench::RunServing(DirectChurn(), seed, seconds, trace, out_dir);
  } else if (workload == "proxy_hop") {
    result = perfbench::RunServing(ProxyHop(), seed, seconds, trace, out_dir);
  } else if (workload == "control_replan") {
    result = perfbench::RunControl(seconds, trace, out_dir);
  } else {
    return Usage();
  }

  // Every metric the run measured, by name and unit. run.py holds them to
  // BENCHMARK.json's list.
  std::string metrics;
  std::fprintf(stderr, "%s (%s run):\n", workload.c_str(),
               trace ? "traced" : "end-to-end");
  for (const auto& [name, m] : result.metrics) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
    std::fprintf(stderr, "  %-30s %14.6g %s\n", name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& f : result.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = result.correct();
  // The result format needs attempted >= 1; a run that failed before its
  // first op is already incorrect.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(result.attempted, 1)),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return correct ? 0 : 1;
}
