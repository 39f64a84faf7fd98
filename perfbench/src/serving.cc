#include "perfbench/src/serving.h"

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "perfbench/src/replay.h"
#include "perfbench/src/spans.h"
#include "src/loadgen/engine.h"
#include "src/net/client.h"
#include "src/net/request_handler.h"
#include "src/net/server.h"
#include "src/net/sharded_server.h"
#include "src/obs/metrics_hub.h"
#include "src/obs/obs.h"
#include "src/proxy/proxy_core.h"
#include "src/proxy/upstream_pool.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

namespace net = spotcache::net;
namespace lg = spotcache::loadgen;
namespace proxy = spotcache::proxy;
using spotcache::Obs;

const char* const kHost = "127.0.0.1";
constexpr int kConnections = 4;
constexpr uint32_t kShards = 2;  // direct serving
constexpr double kZipfTheta = 0.99;
// The paper's latency target (OptimizerConfig::mean_latency_target), applied
// to the median of each staircase step.
constexpr double kP50LimitUs = 800.0;
constexpr double kMinCompletedShare = 0.99;
constexpr double kStairGrowth = 1.10;
constexpr int kStairStopAfterFailures = 2;
constexpr int kReclimbBackoff = 4;
constexpr int kStairMaxSteps = 24;
constexpr int kClimbs = 5;
constexpr int kStepWindows = 5;  // latency windows per staircase step
constexpr int kMaxStepsDown = 16;
constexpr int kSetupRounds = 5;
constexpr int kCheckSampleKeys = 256;
constexpr double kFixedPassS = 0.5;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Pins the calling thread to one CPU (modulo the CPUs present), so every run
// places the tier's loops and the generator the same way.
void PinCurrentThread(unsigned cpu) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % n, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// CPU layout: serving loops on CPUs 0..2, the load generator on CPU 3.
constexpr unsigned kGeneratorCpu = 3;

// Times ProxyCore::Handle from the outside (traced runs only): per-call
// latency, summed busy time, and one span per request.
class TimedHandler final : public net::RequestHandler {
 public:
  TimedHandler(net::RequestHandler* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  bool Handle(const net::TextRequest& req, int64_t now,
              net::ResponseAssembler* out) override {
    const int64_t t0 = NowNs();
    const bool keep = inner_->Handle(req, now, out);
    const int64_t t1 = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    if (recording_) {
      hist_.Record(static_cast<double>(t1 - t0) * 1e-9);
      busy_ns_ += t1 - t0;
      spans_->Add("proxy.handle", t0, t1, parent_, ++request_);
    }
    return keep;
  }
  void HandleParseError(net::ParseErrorKind kind,
                        net::ResponseAssembler* out) override {
    inner_->HandleParseError(kind, out);
  }
  void set_telemetry(spotcache::RequestTelemetry* telemetry) override {
    inner_->set_telemetry(telemetry);
  }

  void StartRecording(uint64_t parent) {
    std::lock_guard<std::mutex> lock(mu_);
    recording_ = true;
    parent_ = parent;
    hist_.Reset();
    busy_ns_ = 0;
  }
  void StopRecording() {
    std::lock_guard<std::mutex> lock(mu_);
    recording_ = false;
  }
  spotcache::LogHistogram hist() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }
  int64_t busy_ns() const {
    std::lock_guard<std::mutex> lock(mu_);
    return busy_ns_;
  }

 private:
  net::RequestHandler* inner_;
  SpanRecorder* spans_;
  mutable std::mutex mu_;
  bool recording_ = false;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  spotcache::LogHistogram hist_ = lg::MakeLatencyHistogram();
  int64_t busy_ns_ = 0;
};

// The serving tier, composed as spotcache_server (--threads=N
// --force-dispatch) or spotcache_proxy (two --node upstreams) compose it,
// with every loop on its own thread of this process.
class Tier {
 public:
  Tier(const ServingWorkload& w, SpanRecorder* spans) : w_(w), spans_(spans) {}
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;

  ~Tier() {
    Stop();
  }

  bool Start() {
    if (!w_.proxy) {
      net::ShardedServerConfig scfg;
      scfg.base.bind_host = kHost;
      scfg.base.port = 0;
      scfg.base.core.capacity_bytes = kStoreBytes;
      scfg.threads = kShards;
      // Shard 0 accepts and hands connections round-robin to the shards,
      // so every run gets the same connection-to-shard spread.
      scfg.force_dispatch = true;
      scfg.pin_threads = true;  // spotcache_server --pin: shard i on CPU i
      sharded_ = std::make_unique<net::ShardedServer>(scfg, nullptr, &obs_);
      if (!sharded_->Start()) {
        return false;
      }
      net::ShardedServer* s = sharded_.get();
      threads_.emplace_back([s] { s->Run(); });
      return true;
    }
    for (int i = 0; i < 2; ++i) {
      net::NetServerConfig ucfg;
      ucfg.bind_host = kHost;
      ucfg.port = 0;
      ucfg.core.capacity_bytes = kStoreBytes;
      upstream_obs_.push_back(std::make_unique<Obs>());
      upstreams_.push_back(
          std::make_unique<net::NetServer>(ucfg, nullptr, upstream_obs_.back().get()));
      if (!upstreams_.back()->Start()) {
        return false;
      }
      net::NetServer* u = upstreams_.back().get();
      if (spans_ != nullptr) {
        // Traced runs read loop and latency histograms from the upstreams'
        // published registries (a sharded server has its hub built in).
        u->AttachMetricsHub(&upstream_hub_, static_cast<size_t>(i));
      }
      threads_.emplace_back([u, i] {
        PinCurrentThread(1 + static_cast<unsigned>(i));
        u->Run();
      });
    }
    proxy::ProxyCoreConfig pcfg;
    proxy_obs_.tracer.set_enabled(false);
    core_ = std::make_unique<proxy::ProxyCore>(pcfg, &proxy_obs_,
                                               &proxy_obs_.tracer);
    for (size_t i = 0; i < upstreams_.size(); ++i) {
      core_->pool().SetNode(i, kHost, upstreams_[i]->port());
    }
    net::NetServerConfig cfg;
    cfg.bind_host = kHost;
    cfg.port = 0;
    // As spotcache_proxy: upstream waits are loop work, not stalls.
    cfg.stall_threshold_us = std::max<int64_t>(
        cfg.stall_threshold_us,
        static_cast<int64_t>(pcfg.upstreams.op_timeout_ms) * 2 * 1000);
    proxy_server_ = std::make_unique<net::NetServer>(cfg, nullptr, &proxy_obs_);
    if (spans_ != nullptr) {
      timed_ = std::make_unique<TimedHandler>(core_.get(), spans_);
      proxy_server_->SetHandler(timed_.get());
    } else {
      proxy_server_->SetHandler(core_.get());
    }
    if (!proxy_server_->Start()) {
      return false;
    }
    net::NetServer* p = proxy_server_.get();
    threads_.emplace_back([p] {
      PinCurrentThread(0);
      p->Run();
    });
    return true;
  }

  void Stop() {
    if (sharded_ != nullptr) {
      sharded_->Stop();
    }
    if (proxy_server_ != nullptr) {
      proxy_server_->Stop();
    }
    for (auto& u : upstreams_) {
      u->Stop();
    }
    for (std::thread& t : threads_) {
      t.join();
    }
    threads_.clear();
  }

  uint16_t port() const {
    return w_.proxy ? proxy_server_->port() : sharded_->port();
  }
  /// Ports whose `stats` describe the serving stores and loops.
  std::vector<uint16_t> store_ports() const {
    if (!w_.proxy) {
      return {sharded_->port()};
    }
    std::vector<uint16_t> ports;
    for (const auto& u : upstreams_) {
      ports.push_back(u->port());
    }
    return ports;
  }
  /// The registries every serving loop publishes (shards, or upstreams).
  spotcache::MetricsHub* hub() {
    return w_.proxy ? &upstream_hub_ : &sharded_->hub();
  }
  TimedHandler* timed() { return timed_.get(); }
  proxy::ProxyCore* core() { return core_.get(); }

 private:
  ServingWorkload w_;
  SpanRecorder* spans_;
  Obs obs_;
  std::unique_ptr<net::ShardedServer> sharded_;
  std::vector<std::unique_ptr<Obs>> upstream_obs_;
  spotcache::MetricsHub upstream_hub_{2, 2};
  std::vector<std::unique_ptr<net::NetServer>> upstreams_;
  Obs proxy_obs_;
  std::unique_ptr<proxy::ProxyCore> core_;
  std::unique_ptr<TimedHandler> timed_;
  std::unique_ptr<net::NetServer> proxy_server_;
  std::vector<std::thread> threads_;  // joined by Stop()
};

lg::OpStreamConfig StreamFor(const ServingWorkload& w, uint64_t seed,
                             double rate_rps, double duration_s,
                             double window_s) {
  lg::OpStreamConfig s;
  s.schedule.kind = lg::ScheduleConfig::Kind::kPoisson;
  s.schedule.base_rate_rps = rate_rps;
  s.schedule.duration_s = duration_s;
  // Phases of `window_s` at the base rate: per-window latency summaries.
  for (int i = 0; window_s > 0.0 && (i + 1) * window_s <= duration_s + 1e-9;
       ++i) {
    s.schedule.phases.push_back({i * window_s, window_s, 1.0, 0});
  }
  s.keys.num_keys = w.num_keys;
  s.keys.theta = kZipfTheta;
  s.mix.get_ratio = w.get_ratio;
  s.mix.value_bytes = w.value_bytes;
  s.mix.value_bytes_max = w.value_bytes_max;
  s.seed = seed;
  return s;
}

lg::EngineConfig EngineFor(uint16_t port, const lg::OpStreamConfig& stream,
                           bool prefill, bool probe) {
  lg::EngineConfig e;
  e.host = kHost;
  e.port = port;
  e.connections = kConnections;
  e.stream = stream;
  e.prefill = prefill;
  e.probe_shards = probe;
  e.key_prefix = kKeyPrefix;
  e.window_us = 1'000'000;
  return e;
}

struct Pass {
  lg::LoadGenResult r;
  CpuSplit cpu;
  double p50_us = 0.0;
  uint64_t gets = 0;
  uint64_t get_hits = 0;
  uint64_t failed = 0;  // errors + abandoned
};

// One open-loop pass with the CPU split read around it.
Pass RunPass(const lg::EngineConfig& e) {
  Pass p;
  const double proc0 = ProcessCpuSeconds();
  const double gen0 = ThreadCpuSeconds();
  p.r = lg::RunOpenLoop(e);
  const double gen = ThreadCpuSeconds() - gen0;
  const double proc = ProcessCpuSeconds() - proc0;
  p.cpu = SplitCpu(proc, gen, p.r.completed);
  p.p50_us = HistQuantile(p.r.merged_hist, 0.5) * 1e6;
  for (const lg::LoadGenWindow& win : p.r.windows) {
    p.gets += win.gets;
    p.get_hits += win.get_hits;
  }
  p.failed = p.r.errors + p.r.abandoned;
  return p;
}

// Every shard of the direct server holds the same number of the generator's
// connections (the dispatcher's round robin guarantees it; a 4/0 spread once
// measured p50 of 113 ms where 2/2 gave 75 us at the same rate).
bool EvenSpread(const ServingWorkload& w, const lg::LoadGenResult& r) {
  if (w.proxy || r.shard_conn_counts.empty()) {
    return true;
  }
  for (const uint64_t n : r.shard_conn_counts) {
    if (n * kShards != static_cast<uint64_t>(kConnections)) {
      return false;
    }
  }
  return true;
}

struct Setup {
  std::unique_ptr<Tier> tier;
  std::vector<double> times_s;  // one per round
  std::string error;
};

// Start the tier, connect, probe shards and prefill, `rounds` times; keeps
// the last tier and each round's set-up time.
Setup RunSetup(const ServingWorkload& w, uint64_t seed, int rounds,
               SpanRecorder* spans) {
  Setup s;
  for (int round = 0; round < rounds; ++round) {
    s.tier.reset();
    ScopedSpan span(spans, "setup");
    const int64_t t0 = NowNs();
    auto tier = std::make_unique<Tier>(w, spans);
    if (!tier->Start()) {
      s.error = "tier failed to start";
      return s;
    }
    // The prefill is its own RunOpenLoop pass: it stores every key, then
    // sends a few paced ops over probed connections.
    const lg::LoadGenResult r = lg::RunOpenLoop(EngineFor(
        tier->port(), StreamFor(w, seed, 1000.0, 0.002, 0.0), true, true));
    s.times_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (!r.ok) {
      s.error = "prefill pass failed: " + r.error;
      return s;
    }
    if (!EvenSpread(w, r)) {
      s.error = "uneven connection-to-shard spread";
      return s;
    }
    s.tier = std::move(tier);
  }
  return s;
}

// Reads the value of a sample of keys back through a plain client: each
// must be all 'v' and of a length the workload writes; with a fitting
// working set every sampled key must be present.
void CheckValues(const ServingWorkload& w, uint16_t port, uint64_t seed,
                 RunResult* out) {
  net::NetClient client;
  if (!client.Connect(kHost, port)) {
    out->check_failures.push_back("value check: connect failed");
    return;
  }
  spotcache::Rng rng(seed ^ 0xc0ffee);
  const uint32_t max_len = std::max(w.value_bytes, w.value_bytes_max);
  for (int i = 0; i < kCheckSampleKeys; ++i) {
    const uint64_t k = rng.NextBelow(w.num_keys);
    const auto got = client.Get(kKeyPrefix + std::to_string(k));
    ++out->attempted;
    if (!got.found) {
      if (w.expect_all_hits) {
        out->check_failures.push_back("value check: key " + std::to_string(k) +
                                      " missing");
        return;
      }
      continue;
    }
    const bool bytes_ok =
        got.value.find_first_not_of('v') == std::string::npos;
    if (!bytes_ok || got.value.size() < w.value_bytes ||
        got.value.size() > max_len) {
      out->check_failures.push_back("value check: key " + std::to_string(k) +
                                    " has a wrong value");
      return;
    }
  }
}

void CheckPass(const ServingWorkload& w, const Pass& p, const char* what,
               RunResult* out) {
  if (!p.r.ok) {
    out->check_failures.push_back(std::string(what) + ": " + p.r.error);
  }
  if (!EvenSpread(w, p.r)) {
    out->check_failures.push_back(std::string(what) +
                                  ": uneven connection-to-shard spread");
  }
  if (w.expect_all_hits && p.r.get_misses > 0) {
    out->check_failures.push_back(std::string(what) + ": " +
                                  std::to_string(p.r.get_misses) +
                                  " get misses on a working set that fits");
  }
}

// `stats` / `stats spotcache` over one connection, as name -> number.
std::map<std::string, double> ReadStats(net::NetClient& c, bool spotcache) {
  std::map<std::string, double> out;
  if (!c.SendRaw(spotcache ? "stats spotcache\r\n" : "stats\r\n")) {
    return out;
  }
  for (;;) {
    const auto line = c.ReadLine();
    if (!line.has_value() || *line == "END") {
      return out;
    }
    if (line->rfind("STAT ", 0) != 0) {
      continue;
    }
    const size_t sp = line->find(' ', 5);
    if (sp != std::string::npos) {
      out[line->substr(5, sp - 5)] = std::atof(line->c_str() + sp + 1);
    }
  }
}

// What the serving loops have recorded so far: their registries (as the
// MetricsHub behind the Prometheus scrape publishes them) and the store
// totals of plain `stats`.
struct LoopSnapshot {
  spotcache::MetricsRegistry registry;
  double evictions = 0.0;
  double bytes = 0.0;
};

LoopSnapshot TakeSnapshot(Tier& tier) {
  // Loops publish at most every 100 ms from a 50 ms tick; wait for a fresh
  // epoch from every one of them.
  SleepMs(250);
  LoopSnapshot snap;
  snap.registry = tier.hub()->Aggregate();
  for (const uint16_t port : tier.store_ports()) {
    net::NetClient c;
    if (!c.Connect(kHost, port)) {
      continue;
    }
    const auto st = ReadStats(c, false);
    const auto it_e = st.find("evictions");
    const auto it_b = st.find("bytes");
    snap.evictions += it_e == st.end() ? 0.0 : it_e->second;
    snap.bytes += it_b == st.end() ? 0.0 : it_b->second;
  }
  return snap;
}

double CounterDelta(const LoopSnapshot& after, const LoopSnapshot& before,
                    const char* name) {
  return static_cast<double>(after.registry.CounterValue(name) -
                             before.registry.CounterValue(name));
}

// Quantile (in microseconds) of what a registry histogram recorded between
// the two snapshots.
double QuantileDeltaUs(const LoopSnapshot& after, const LoopSnapshot& before,
                       const std::string& name, double q) {
  const auto& ha = after.registry.histograms();
  const auto& hb = before.registry.histograms();
  const auto ia = ha.find(name);
  if (ia == ha.end()) {
    return 0.0;
  }
  const auto ib = hb.find(name);
  const spotcache::LogHistogram empty(ia->second.log_histogram().min_value(),
                                      ia->second.log_histogram().growth());
  return HistQuantile(HistDelta(ia->second.log_histogram(),
                                ib == hb.end() ? empty
                                               : ib->second.log_histogram()),
                      q) *
         1e6;
}

void Put(Metrics& m, const std::string& name, double value,
         const std::string& unit) {
  m[name] = Metric{value, unit};
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << body;
}

// One step of the ladder: stair_start_rps * 1.1^i for `step_s`. A step that
// misses the target is run once more before it counts as failed, so a single
// host hiccup does not decide it.
StairStep RunStep(const ServingWorkload& w, uint16_t port, uint64_t seed,
                  int i, double step_s, RunResult* out) {
  StairStep st;
  const double rate = LadderRate(w.stair_start_rps, kStairGrowth, i);
  for (int attempt = 0; attempt < 2; ++attempt) {
    lg::EngineConfig e = EngineFor(
        port,
        StreamFor(w, seed + 2 * static_cast<uint64_t>(i + 64) + attempt, rate,
                  step_s, step_s / kStepWindows),
        false, false);
    e.drain_timeout_s = 0.5;
    const Pass sp = RunPass(e);
    if (w.expect_all_hits && sp.r.get_misses > 0) {
      CheckPass(w, sp, "staircase step", out);
    }
    st.offered_rps = rate;
    st.scheduled = sp.r.scheduled;
    st.completed = sp.r.completed - sp.r.errors;
    st.achieved_rps = static_cast<double>(st.completed) / step_s;
    // The step's p50 is the median of its windows' p50s, so one host stall,
    // whose backlog spoils a window or two, does not decide the step.
    std::vector<double> window_p50s;
    for (size_t k = 1; k < sp.r.segments.size(); ++k) {
      if (sp.r.segments[k].latency.count > 0) {
        window_p50s.push_back(sp.r.segments[k].latency.p50_us);
      }
    }
    st.p50_us = window_p50s.empty() ? sp.p50_us : Median(window_p50s);
    const bool pass = StepPasses(st, kP50LimitUs, kMinCompletedShare);
    std::fprintf(stderr,
                 "  step %3d: %8.0f rps offered, %8.0f achieved, p50 %9.1f us "
                 "%s\n",
                 i, rate, st.achieved_rps, st.p50_us, pass ? "ok" : "over");
    if (pass) {
      break;
    }
    SleepMs(300);  // let the backlog drain before the next attempt
  }
  return st;
}

struct Climb {
  int capacity_step = 0;  // index on the rate ladder
  bool found = false;
  double capacity_rps = 0.0;
};

// One climb of the ladder from step `start_step` until two consecutive steps
// miss the target. If no step passes, the tier cannot meet the target at the
// start rate: walk down the same ladder until a step does.
Climb RunClimb(const ServingWorkload& w, uint16_t port, uint64_t seed,
               int start_step, double step_s, RunResult* out) {
  std::vector<StairStep> steps;
  for (int i = start_step; i < kStairMaxSteps; ++i) {
    steps.push_back(RunStep(w, port, seed, i, step_s, out));
    if (StaircaseDone(steps, kP50LimitUs, kMinCompletedShare,
                      kStairStopAfterFailures)) {
      break;
    }
  }
  Climb c;
  const int cap = CapacityStep(steps, kP50LimitUs, kMinCompletedShare);
  if (cap >= 0) {
    c.found = true;
    c.capacity_step = start_step + cap;
    c.capacity_rps = steps[static_cast<size_t>(cap)].achieved_rps;
    return c;
  }
  for (int i = start_step - 1; i >= -kMaxStepsDown; --i) {
    const StairStep st = RunStep(w, port, seed, i, step_s, out);
    if (StepPasses(st, kP50LimitUs, kMinCompletedShare)) {
      c.found = true;
      c.capacity_step = i;
      c.capacity_rps = st.achieved_rps;
      break;
    }
  }
  return c;
}

// --- End-to-end run. ---------------------------------------------------------

RunResult RunEndToEnd(const ServingWorkload& w, uint64_t seed, int seconds) {
  RunResult out;
  Setup setup = RunSetup(w, seed, kSetupRounds, nullptr);
  if (setup.tier == nullptr) {
    out.check_failures.push_back("setup: " + setup.error);
    return out;
  }
  Tier& tier = *setup.tier;
  // Fixed-rate window: one short open-loop pass per second of run time.
  // p50 is the median of the passes' medians; CPU, hits and failures are
  // totals over all of them.
  const int passes = std::max(1, seconds);
  std::vector<double> p50s;
  double tier_cpu_s = 0.0, gen_cpu_s = 0.0;
  uint64_t completed = 0, gets = 0, get_hits = 0, failed = 0;
  std::string spread;
  for (int k = 0; k < passes; ++k) {
    const Pass p = RunPass(EngineFor(
        tier.port(), StreamFor(w, seed * 1000 + k, w.rate_rps, kFixedPassS, 0.0),
        false, true));
    CheckPass(w, p, "fixed-rate pass", &out);
    out.attempted += p.r.scheduled;
    failed += p.failed;
    p50s.push_back(p.p50_us);
    tier_cpu_s += p.cpu.tier_cpu_s;
    gen_cpu_s += p.cpu.generator_cpu_s;
    completed += p.r.completed;
    gets += p.gets;
    get_hits += p.get_hits;
    if (k == 0) {
      for (const uint64_t n : p.r.shard_conn_counts) {
        spread += " " + std::to_string(n);
      }
    }
  }
  out.failed += failed;
  const CpuSplit cpu = SplitCpu(tier_cpu_s + gen_cpu_s, gen_cpu_s, completed);
  const double p50_us = Median(p50s);
  const double rss_mb = PeakRssMb();
  std::fprintf(stderr,
               "%s: %d fixed-rate passes at %.0f rps, p50 %.1f us (median of "
               "passes), tier %.3f us/op, generator %.3f us/op, generator "
               "connections per shard:%s\n",
               w.name.c_str(), passes, w.rate_rps, p50_us, cpu.tier_us_per_op,
               cpu.generator_us_per_op, spread.c_str());
  std::fprintf(stderr, "  pass p50s (us):");
  for (const double v : p50s) {
    std::fprintf(stderr, " %.1f", v);
  }
  std::fprintf(stderr, "\n");

  // Capacity: kClimbs climbs of the staircase upward in 10% steps. The first
  // climb starts at stair_start_rps; later climbs start kReclimbBackoff
  // steps below the previous climb's capacity step (never below the start).
  // The reported capacity is the median over climbs.
  std::vector<double> capacities;
  int start_step = 0;
  for (int climb = 0; climb < kClimbs; ++climb) {
    const Climb c = RunClimb(w, tier.port(), seed * 1000 + 100 * climb,
                             start_step, 0.025 * seconds, &out);
    if (!c.found) {
      out.check_failures.push_back("no staircase step met the latency target");
      break;
    }
    capacities.push_back(c.capacity_rps);
    std::fprintf(stderr, "  climb %d: capacity %.0f rps (step %d)\n", climb,
                 c.capacity_rps, c.capacity_step);
    start_step = std::max(0, c.capacity_step - kReclimbBackoff);
  }
  const double capacity = Median(capacities);

  CheckValues(w, tier.port(), seed, &out);

  // As many set-up rounds again at the end of the run, so the samples span
  // it and a burst of host contention at its start does not decide the
  // median.
  std::vector<double> setup_times = setup.times_s;
  setup.tier.reset();
  const Setup late = RunSetup(w, seed, kSetupRounds, nullptr);
  if (late.tier == nullptr) {
    out.check_failures.push_back("setup: " + late.error);
  }
  setup_times.insert(setup_times.end(), late.times_s.begin(),
                     late.times_s.end());

  Put(out.metrics, "setup_s", Median(setup_times), "s");
  Put(out.metrics, "cpu_us_per_op", cpu.tier_us_per_op, "us");
  Put(out.metrics, "rss_mb", rss_mb, "MB");
  Put(out.metrics, "hit_ratio",
      gets > 0 ? static_cast<double>(get_hits) / static_cast<double>(gets) : 0.0,
      "ratio");
  Put(out.metrics, "capacity_per_s", capacity, "1/s");
  // p50 at the fixed rate is printed, not bounded: it follows the host's
  // speed several times over (see README.md, "Measured spread").
  std::fprintf(stderr, "%s: p50_us %.3f us (median of passes)\n",
               w.name.c_str(), p50_us);
  std::fprintf(stderr, "%s: fail_ratio %.6f (%llu of %llu scheduled)\n",
               w.name.c_str(),
               out.attempted > 0 ? static_cast<double>(failed) /
                                       static_cast<double>(out.attempted)
                                 : 0.0,
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(out.attempted));
  return out;
}

// --- Traced run. -------------------------------------------------------------

RunResult RunTraced(const ServingWorkload& w, uint64_t seed, int seconds,
                    const std::string& out_dir) {
  RunResult out;
  SpanRecorder spans;
  Setup setup = RunSetup(w, seed, 1, &spans);
  if (setup.tier == nullptr) {
    out.check_failures.push_back("setup: " + setup.error);
    return out;
  }
  Tier& tier = *setup.tier;
  const double pass_s = 0.3 * seconds;
  const lg::OpStreamConfig stream = StreamFor(w, seed, w.rate_rps, pass_s, 1.0);

  // Untraced pass first (the trace-overhead base and the ledger's total).
  const Pass base = RunPass(EngineFor(tier.port(), stream, false, true));
  CheckPass(w, base, "untraced pass", &out);

  const LoopSnapshot before = TakeSnapshot(tier);
  const uint64_t pass_span = spans.NextId();
  if (tier.timed() != nullptr) {
    tier.timed()->StartRecording(pass_span);
  }
  const int64_t t0 = NowNs();
  const Pass p = RunPass(EngineFor(tier.port(), stream, false, true));
  const int64_t t1 = NowNs();
  spans.AddWithId(pass_span, "loadgen.pass", t0, t1, 0, 1);
  if (tier.timed() != nullptr) {
    tier.timed()->StopRecording();
  }
  CheckPass(w, p, "traced pass", &out);
  out.attempted += base.r.scheduled + p.r.scheduled;
  out.failed += base.failed + p.failed;
  const LoopSnapshot after = TakeSnapshot(tier);
  const double kops = static_cast<double>(p.r.completed) / 1000.0;
  const auto per_kop = [kops](double v) { return kops > 0.0 ? v / kops : 0.0; };

  Metrics& m = out.metrics;
  // loadgen
  Put(m, "loadgen.p50_us", p.p50_us, "us");
  Put(m, "loadgen.p90_us", HistQuantile(p.r.merged_hist, 0.90) * 1e6, "us");
  Put(m, "loadgen.p99_us", HistQuantile(p.r.merged_hist, 0.99) * 1e6, "us");
  Put(m, "loadgen.p999_us", HistQuantile(p.r.merged_hist, 0.999) * 1e6, "us");
  double worst_window = 0.0;
  for (size_t i = 1; i < p.r.segments.size(); ++i) {
    worst_window = std::max(worst_window, p.r.segments[i].latency.p99_us);
  }
  Put(m, "loadgen.worst_window_p99_us", worst_window, "us");
  Put(m, "loadgen.cpu_us_per_op", p.cpu.generator_us_per_op, "us");
  {
    std::vector<uint64_t> keys;
    lg::OpGenerator gen(stream);
    while (auto op = gen.Next()) {
      keys.push_back(op->key);
    }
    Put(m, "loadgen.remote_key_share",
        RemoteKeyShare(keys, kKeyPrefix, p.r.conn_shards, p.r.server_shards),
        "ratio");
  }
  // net: registry deltas over the traced pass
  const auto loop_q = [&](const char* name, double q) {
    return QuantileDeltaUs(after, before, name, q);
  };
  Put(m, "net.loop_iters_per_kop",
      per_kop(CounterDelta(after, before, "net/loop/iterations")), "count/kop");
  Put(m, "net.loop_wait_p50_us", loop_q("net/loop/wait_s", 0.5), "us");
  Put(m, "net.loop_work_p50_us", loop_q("net/loop/work_s", 0.5), "us");
  Put(m, "net.loop_work_p99_us", loop_q("net/loop/work_s", 0.99), "us");
  Put(m, "net.loop_stalls", CounterDelta(after, before, "net/loop/stalls"),
      "count");
  Put(m, "net.server_get_p50_us",
      loop_q("net/request_latency_s{op=get,outcome=hit}", 0.5), "us");
  Put(m, "net.server_set_p50_us",
      loop_q("net/request_latency_s{op=set,outcome=stored}", 0.5), "us");
  // store
  Put(m, "store.evictions_per_kop", per_kop(after.evictions - before.evictions),
      "count/kop");
  const double rss_mb = PeakRssMb();
  Put(m, "store.rss_per_stored_byte",
      after.bytes > 0.0 ? rss_mb * 1024.0 * 1024.0 / after.bytes : 0.0, "ratio");

  // proxy
  double handle_p50 = 0.0, handle_p99 = 0.0, busy = 0.0, rtt = 0.0;
  if (tier.timed() != nullptr) {
    const spotcache::LogHistogram h = tier.timed()->hist();
    handle_p50 = HistQuantile(h, 0.5) * 1e6;
    handle_p99 = HistQuantile(h, 0.99) * 1e6;
    busy = static_cast<double>(tier.timed()->busy_ns()) /
           static_cast<double>(std::max<int64_t>(t1 - t0, 1));
    // Direct pool calls against the same upstreams: one-key MultiGet and a
    // forwarded set, each a full upstream round trip.
    ScopedSpan rtt_span(&spans, "proxy.upstream_rtt");
    proxy::UpstreamPool pool(proxy::UpstreamPoolConfig{});
    const auto ports = tier.store_ports();
    for (size_t i = 0; i < ports.size(); ++i) {
      pool.SetNode(i, kHost, ports[i]);
    }
    std::vector<double> rtts;
    std::vector<proxy::KeyFetch> fetched;
    spotcache::Rng rng(seed ^ 0x5151);
    const std::string value(w.value_bytes, 'v');
    for (int i = 0; i < 2000; ++i) {
      const std::string key = kKeyPrefix + std::to_string(rng.NextBelow(w.num_keys));
      const int64_t a = NowNs();
      if (i % 10 == 9) {
        const std::string wire = "set " + key + " 0 0 " +
                                 std::to_string(value.size()) + "\r\n" + value +
                                 "\r\n";
        pool.ForwardLineCommand(key, wire);
      } else {
        const std::vector<std::string_view> keys = {key};
        pool.MultiGet(keys, false, &fetched);
      }
      const int64_t b = NowNs();
      spans.Add("proxy.upstream_call", a, b, rtt_span.id(), static_cast<uint64_t>(i));
      rtts.push_back(static_cast<double>(b - a) * 1e-3);
    }
    rtt = Median(rtts);
  }
  Put(m, "proxy.handle_p50_us", handle_p50, "us");
  Put(m, "proxy.handle_p99_us", handle_p99, "us");
  Put(m, "proxy.loop_busy_share", busy, "ratio");
  Put(m, "proxy.upstream_rtt_us", rtt, "us");

  // Offline replay of the same op stream.
  ReplayCosts rep;
  {
    ScopedSpan replay_span(&spans, "replay");
    rep = RunReplay(stream, &spans, replay_span.id());
  }
  Put(m, "net.parse_ns", rep.parse_ns, "ns");
  Put(m, "net.handle_ns", rep.handle_ns, "ns");
  Put(m, "net.assemble_ns", rep.assemble_ns, "ns");
  Put(m, "obs.telemetry_ns", rep.telemetry_ns, "ns");
  Put(m, "store.get_ns", rep.store_get_ns, "ns");
  Put(m, "store.set_ns", rep.store_set_ns, "ns");
  const Ledger ledger = BuildLedger(
      base.cpu.tier_us_per_op,
      {{"net.parse (RequestParser)", rep.parse_ns * 1e-3},
       {"net.handle (ServerCore)", rep.handle_ns * 1e-3},
       {"net.assemble (Assembler)", rep.assemble_ns * 1e-3},
       {"obs.telemetry", rep.telemetry_ns * 1e-3}});
  Put(m, "net.kernel_us_per_op", ledger.remainder_us_per_op, "us");
  if (!ledger.consistent) {
    out.check_failures.push_back("ledger: replayed layers exceed the tier CPU");
  }

  const double overhead =
      w.proxy ? (base.p50_us > 0.0 ? p.p50_us / base.p50_us : 0.0)
              : (base.cpu.tier_us_per_op > 0.0
                     ? p.cpu.tier_us_per_op / base.cpu.tier_us_per_op
                     : 0.0);
  Put(m, "trace.overhead", overhead, "ratio");

  CheckValues(w, tier.port(), seed, &out);
  tier.Stop();
  double absorbed = 0.0, reconnects = 0.0, skips = 0.0;
  if (tier.core() != nullptr) {
    const proxy::UpstreamPoolStats& ps = tier.core()->pool().stats();
    absorbed = static_cast<double>(ps.absorbed_failures);
    reconnects = static_cast<double>(ps.reconnects);
    skips = static_cast<double>(ps.breaker_skips);
  }
  Put(m, "proxy.absorbed_failures", absorbed, "count");
  Put(m, "proxy.reconnects", reconnects, "count");
  Put(m, "proxy.breaker_skips", skips, "count");

  // Ledger and span tables.
  std::string report = RenderLedger(
      "ledger " + w.name + ": base = serving-tier CPU", ledger, "us/op",
      "kernel+hop (remainder)");
  char line[256];
  std::snprintf(line, sizeof(line),
                "  (base: untraced pass, %llu ops; layer costs: replay of "
                "%llu ops of the same stream)\n",
                static_cast<unsigned long long>(base.r.completed),
                static_cast<unsigned long long>(rep.ops));
  report += line;
  report += RenderSelfTimes(spans);
  std::fprintf(stderr, "%s", report.c_str());
  const std::string stem = out_dir + "/" + w.name + "-seed" + std::to_string(seed);
  WriteFile(stem + ".spans.jsonl", spans.ToJsonl());
  WriteFile(stem + ".ledger.txt", report);
  return out;
}

}  // namespace

RunResult RunServing(const ServingWorkload& w, uint64_t seed, int seconds,
                     bool trace, const std::string& out_dir) {
  PinCurrentThread(kGeneratorCpu);
  return trace ? RunTraced(w, seed, seconds, out_dir)
               : RunEndToEnd(w, seed, seconds);
}

}  // namespace perfbench
