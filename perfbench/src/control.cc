#include "perfbench/src/control.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "perfbench/src/spans.h"
#include "src/cloud/instance_types.h"
#include "src/cloud/spot_price_model.h"
#include "src/core/experiment.h"
#include "src/exec/experiment_grid.h"
#include "src/exec/thread_pool.h"
#include "src/predict/spot_predictor.h"
#include "src/workload/workload_spec.h"

namespace perfbench {

namespace {

using spotcache::Approach;
using spotcache::ExperimentConfig;
using spotcache::ExperimentResult;

constexpr int kDays = 14;
constexpr uint64_t kMarketSeeds[] = {7, 11};

// Pinned outputs of every cell, in grid order (approach-major, then market
// seed). Any behaviour change in predict, opt, core, cloud or exec moves a
// digest; refresh with `perfbench --print-pins` only for an intended change.
struct Pin {
  uint64_t digest;
  double cost_usd;
};
constexpr Pin kPins[] = {
#include "perfbench/src/control_pins.inc"
};

int Workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(hw == 0 ? 1 : hw, 1, 4));
}

std::vector<ExperimentConfig> BuildCells(bool obs) {
  std::vector<ExperimentConfig> cells;
  for (const Approach a : spotcache::AllApproaches()) {
    for (const uint64_t market_seed : kMarketSeeds) {
      ExperimentConfig cfg;
      cfg.workload = spotcache::PrototypeWorkload(kDays);
      cfg.approach = a;
      cfg.market_seed = market_seed;
      cfg.obs.enabled = obs;
      cfg.obs.trace = false;
      cells.push_back(std::move(cfg));
    }
  }
  return cells;
}

uint64_t Slots(const std::vector<ExperimentResult>& results) {
  uint64_t n = 0;
  for (const ExperimentResult& r : results) {
    n += r.slots.size();
  }
  return n;
}

double PropCost(const std::vector<ExperimentConfig>& cells,
                const std::vector<ExperimentResult>& results) {
  double cost = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].approach == Approach::kProp) {
      cost += results[i].total_cost;
    }
  }
  return cost;
}

// Share of simulated requests that did not hit a revoked node, over the
// kProp cells.
double PropHitRatio(const std::vector<ExperimentConfig>& cells,
                    const std::vector<ExperimentResult>& results) {
  double sum = 0.0;
  int n = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].approach == Approach::kProp) {
      sum += 1.0 - results[i].tracker.AffectedRequestFraction();
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

void CheckPins(const std::vector<ExperimentResult>& results, RunResult* out) {
  constexpr size_t kPinCount = sizeof(kPins) / sizeof(kPins[0]);
  if (results.size() != kPinCount) {
    out->check_failures.push_back("grid size differs from the pinned grid");
    return;
  }
  for (size_t i = 0; i < results.size(); ++i) {
    const uint64_t digest = spotcache::DigestExperimentResult(results[i]);
    const double cost = results[i].total_cost;
    if (digest != kPins[i].digest ||
        std::fabs(cost - kPins[i].cost_usd) >
            1e-9 * std::max(1.0, std::fabs(kPins[i].cost_usd))) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "cell %zu: digest %016" PRIx64 " cost %.6f, pinned %016" PRIx64
                    " %.6f",
                    i, digest, cost, kPins[i].digest, kPins[i].cost_usd);
      out->check_failures.push_back(buf);
    }
  }
}

// Histogram `name` (a registry full name) from a Prometheus snapshot,
// rebuilt on the LogHistogram geometry the registry uses.
spotcache::LogHistogram HistFromPrometheus(const std::string& text,
                                           const std::string& name,
                                           double* sum) {
  spotcache::LogHistogram h(1e-6, 1.05);
  const std::string bucket = name + "_bucket{le=\"";
  const std::string sum_prefix = name + "_sum ";
  std::istringstream in(text);
  std::string line;
  uint64_t prev = 0;
  const double half_step = std::sqrt(1.05);
  while (std::getline(in, line)) {
    if (line.rfind(bucket, 0) == 0) {
      const size_t q = line.find('"', bucket.size());
      const std::string le = line.substr(bucket.size(), q - bucket.size());
      const uint64_t cumulative =
          std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10);
      if (le != "+Inf" && cumulative > prev) {
        h.RecordN(std::atof(le.c_str()) / half_step, cumulative - prev);
      }
      prev = std::max(prev, cumulative);
    } else if (line.rfind(sum_prefix, 0) == 0) {
      *sum += std::atof(line.c_str() + sum_prefix.size());
    }
  }
  return h;
}

struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t slots = 0;
};

Round RunRound(const std::vector<ExperimentConfig>& cells,
               std::vector<ExperimentResult>* results) {
  Round r;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  *results = spotcache::RunExperimentGrid(cells, {.threads = Workers()});
  r.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  r.slots = Slots(*results);
  return r;
}

void Put(Metrics& m, const std::string& name, double value,
         const std::string& unit) {
  m[name] = Metric{value, unit};
}

RunResult RunEndToEnd(int seconds) {
  RunResult out;
  // Set-up: build and validate the grid's configs, and build every spot
  // cell's markets, the substrate RunExperiment builds before its first slot
  // (traces of days + 9, as it sizes them).
  // A sample runs before the first grid round and after every round, so the
  // samples span the whole run; the median sample is reported.
  const spotcache::InstanceCatalog catalog =
      spotcache::InstanceCatalog::Default();
  std::vector<double> setup;
  std::vector<ExperimentConfig> cells;
  const auto setup_sample = [&]() {
    const int64_t t0 = NowNs();
    cells = BuildCells(false);
    for (const ExperimentConfig& c : cells) {
      if (!spotcache::ValidateExperimentConfig(c).empty()) {
        return false;
      }
      if (spotcache::TraitsOf(c.approach).uses_spot &&
          spotcache::MakeEvaluationMarkets(
              catalog, spotcache::Duration::Days(c.workload.days + 9),
              c.market_seed)
              .empty()) {
        return false;
      }
    }
    setup.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    return true;
  };
  if (!setup_sample()) {
    out.check_failures.push_back("set-up: invalid cell config or no markets");
    return out;
  }

  std::vector<double> slots_per_s, cpu_per_slot;
  std::vector<ExperimentResult> results;
  const int64_t start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(seconds) * 1'000'000'000;
  while (slots_per_s.size() < 3 || NowNs() - start < budget_ns) {
    const Round r = RunRound(cells, &results);
    out.attempted += cells.size();
    CheckPins(results, &out);
    if (!out.check_failures.empty()) {
      out.failed += cells.size();
      break;
    }
    setup_sample();
    const double slots = static_cast<double>(r.slots);
    slots_per_s.push_back(slots / r.wall_s);
    cpu_per_slot.push_back(r.cpu_s * 1e6 / slots);
  }
  const double cost = PropCost(cells, results);
  Put(out.metrics, "setup_s", Median(setup), "s");
  Put(out.metrics, "cpu_us_per_op", Median(cpu_per_slot), "us");
  Put(out.metrics, "rss_mb", PeakRssMb(), "MB");
  Put(out.metrics, "hit_ratio", PropHitRatio(cells, results), "ratio");
  Put(out.metrics, "capacity_per_s", Median(slots_per_s), "1/s");
  std::fprintf(stderr,
               "control_replan: %zu rounds of %zu cells on %d workers, "
               "sim_slots_per_s %.1f, cost_usd %.6f (kProp cells)\n",
               slots_per_s.size(), cells.size(), Workers(),
               Median(slots_per_s), cost);
  return out;
}

RunResult RunTraced(int seconds, const std::string& out_dir) {
  RunResult out;
  SpanRecorder spans;
  const std::vector<ExperimentConfig> plain = BuildCells(false);
  std::vector<ExperimentResult> results;

  // Untraced base for the overhead ratio.
  std::vector<double> base_rate;
  const int64_t start = NowNs();
  while (base_rate.empty() ||
         NowNs() - start < static_cast<int64_t>(seconds) * 300'000'000) {
    const Round r = RunRound(plain, &results);
    out.attempted += plain.size();
    base_rate.push_back(static_cast<double>(r.slots) / r.wall_s);
  }
  CheckPins(results, &out);

  // Traced round: the program's own obs (controller/plan_ms,
  // optimizer/solve_ms) plus one span per cell, through the same pool
  // composition RunExperimentGrid uses.
  const std::vector<ExperimentConfig> traced = BuildCells(true);
  std::vector<ExperimentResult> traced_results(traced.size());
  std::vector<int64_t> cell_ns(traced.size(), 0);
  const int workers = Workers();
  const uint64_t grid_span = spans.NextId();
  const int64_t g0 = NowNs();
  {
    spotcache::ThreadPool pool(workers);
    spotcache::ParallelFor(pool, traced.size(), [&](size_t i) {
      const int64_t a = NowNs();
      traced_results[i] = spotcache::RunExperiment(traced[i]);
      const int64_t b = NowNs();
      cell_ns[i] = b - a;
      spans.Add("exec.cell", a, b, grid_span, i + 1);
    });
  }
  const int64_t g1 = NowNs();
  spans.AddWithId(grid_span, "exec.grid", g0, g1);
  out.attempted += traced.size();
  const double traced_rate =
      static_cast<double>(Slots(traced_results)) /
      (static_cast<double>(g1 - g0) * 1e-9);

  spotcache::LogHistogram plan(1e-6, 1.05), solve(1e-6, 1.05);
  double plan_sum_ms = 0.0, solve_sum_ms = 0.0;
  int64_t cells_ns = 0;
  for (size_t i = 0; i < traced_results.size(); ++i) {
    plan.Merge(HistFromPrometheus(traced_results[i].metrics_prometheus,
                                  "controller_plan_ms", &plan_sum_ms));
    solve.Merge(HistFromPrometheus(traced_results[i].metrics_prometheus,
                                   "optimizer_solve_ms", &solve_sum_ms));
    cells_ns += cell_ns[i];
  }
  if (plan.count() == 0) {
    out.check_failures.push_back("traced grid exported no controller/plan_ms");
  }

  // LifetimePredictor::Predict, called hourly over the evaluation markets.
  std::vector<double> predict_us;
  {
    ScopedSpan predict_span(&spans, "predict.batch");
    const spotcache::InstanceCatalog catalog =
        spotcache::InstanceCatalog::Default();
    const auto markets = spotcache::MakeEvaluationMarkets(
        catalog, spotcache::Duration::Days(kDays + 9), kMarketSeeds[0]);
    double sink = 0.0;
    for (const auto& market : markets) {
      const spotcache::LifetimePredictor predictor;
      for (spotcache::SimTime t =
               spotcache::SimTime() + spotcache::Duration::Days(7);
           t < market.trace.end(); t += spotcache::Duration::Hours(1)) {
        const int64_t a = NowNs();
        sink += predictor.Predict(market.trace, t, market.od_price()).avg_price;
        predict_us.push_back(static_cast<double>(NowNs() - a) * 1e-3);
      }
    }
    if (std::isnan(sink)) {
      out.check_failures.push_back("predictor returned NaN");
    }
  }

  Metrics& m = out.metrics;
  Put(m, "core.plan_p50_us", HistQuantile(plan, 0.5) * 1e3, "us");
  Put(m, "core.plan_p99_us", HistQuantile(plan, 0.99) * 1e3, "us");
  Put(m, "opt.solve_p50_us", HistQuantile(solve, 0.5) * 1e3, "us");
  Put(m, "predict.predict_us", Median(predict_us), "us");
  Put(m, "exec.busy_share",
      static_cast<double>(cells_ns) /
          (static_cast<double>(workers) * static_cast<double>(g1 - g0)),
      "ratio");
  Put(m, "sim.other_share",
      cells_ns > 0 ? 1.0 - plan_sum_ms * 1e6 / static_cast<double>(cells_ns)
                   : 0.0,
      "ratio");
  Put(m, "trace.overhead", traced_rate > 0.0 ? Median(base_rate) / traced_rate : 0.0,
      "ratio");

  const uint64_t slots = std::max<uint64_t>(Slots(traced_results), 1);
  const double per_slot = 1e3 / static_cast<double>(slots);  // ms -> us/slot
  const double base_us = static_cast<double>(cells_ns) * 1e-6 * per_slot;
  const Ledger ledger = BuildLedger(
      base_us, {{"opt.solve (inside Plan)", solve_sum_ms * per_slot},
                {"core.plan minus solve",
                 std::max(plan_sum_ms - solve_sum_ms, 0.0) * per_slot}});
  std::string report = RenderLedger(
      "ledger control_replan: base = summed cell wall over " +
          std::to_string(slots) + " slots,",
      ledger, "us/slot", "sim outside Plan");
  report += RenderSelfTimes(spans);
  std::fprintf(stderr, "%s", report.c_str());
  const std::string stem = out_dir + "/control_replan";
  std::ofstream(stem + ".spans.jsonl", std::ios::trunc) << spans.ToJsonl();
  std::ofstream(stem + ".ledger.txt", std::ios::trunc) << report;
  return out;
}

}  // namespace

RunResult RunControl(int seconds, bool trace, const std::string& out_dir) {
  return trace ? RunTraced(seconds, out_dir) : RunEndToEnd(seconds);
}

void PrintControlPins() {
  const std::vector<ExperimentConfig> cells = BuildCells(false);
  const auto results =
      spotcache::RunExperimentGrid(cells, {.threads = Workers()});
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("    {0x%016" PRIx64 "ULL, %.17g},  // %s, market seed %" PRIu64 "\n",
                spotcache::DigestExperimentResult(results[i]),
                results[i].total_cost,
                std::string(spotcache::ToString(cells[i].approach)).c_str(),
                cells[i].market_seed);
  }
}

}  // namespace perfbench
