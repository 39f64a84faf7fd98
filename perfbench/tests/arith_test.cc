// Tests of the benchmark's own arithmetic (perfbench/src/measure.h).
// Run with `python3 perfbench/run.py --self-test`.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "perfbench/src/measure.h"
#include "perfbench/src/spans.h"
#include "src/net/sharding.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

constexpr double kLimit = 800.0;
constexpr double kShare = 0.99;

StairStep Step(double rate, double p50_us, uint64_t scheduled = 1000,
               uint64_t completed = 1000) {
  StairStep s;
  s.offered_rps = rate;
  s.scheduled = scheduled;
  s.completed = completed;
  s.achieved_rps = rate;
  s.p50_us = p50_us;
  return s;
}

TEST(Staircase, LadderGrowsGeometrically) {
  EXPECT_DOUBLE_EQ(LadderRate(10'000, 1.1, 0), 10'000);
  EXPECT_NEAR(LadderRate(10'000, 1.1, 1), 11'000, 1e-9);
  EXPECT_NEAR(LadderRate(10'000, 1.1, 3), 13'310, 1e-6);
  EXPECT_NEAR(LadderRate(11'000, 1.1, -1), 10'000, 1e-9);
}

TEST(Staircase, StepNeedsLatencyAndCompletions) {
  EXPECT_TRUE(StepPasses(Step(1, 800.0), kLimit, kShare));
  EXPECT_FALSE(StepPasses(Step(1, 800.5), kLimit, kShare));
  EXPECT_TRUE(StepPasses(Step(1, 10.0, 1000, 990), kLimit, kShare));
  EXPECT_FALSE(StepPasses(Step(1, 10.0, 1000, 989), kLimit, kShare));
  EXPECT_FALSE(StepPasses(Step(1, 10.0, 0, 0), kLimit, kShare));
}

TEST(Staircase, CapacityIsHighestPassingStep) {
  const std::vector<StairStep> steps = {Step(10, 50), Step(11, 60),
                                        Step(12, 900), Step(13, 5000)};
  EXPECT_EQ(CapacityStep(steps, kLimit, kShare), 1);
}

TEST(Staircase, FailureMidStaircaseDoesNotCapCapacity) {
  // Step 2 misses (a hiccup), steps 3 and 4 pass, then two misses end it.
  const std::vector<StairStep> steps = {Step(10, 50),  Step(11, 60),
                                        Step(12, 3000), Step(13, 70),
                                        Step(14, 700), Step(15, 9000),
                                        Step(16, 20000)};
  EXPECT_EQ(CapacityStep(steps, kLimit, kShare), 4);
  // The climb continued past the single failure...
  const std::vector<StairStep> first3(steps.begin(), steps.begin() + 3);
  EXPECT_FALSE(StaircaseDone(first3, kLimit, kShare, 2));
  // ...and stops after two consecutive failures.
  EXPECT_TRUE(StaircaseDone(steps, kLimit, kShare, 2));
}

TEST(Staircase, NoPassingStep) {
  const std::vector<StairStep> steps = {Step(10, 900), Step(11, 1000)};
  EXPECT_EQ(CapacityStep(steps, kLimit, kShare), -1);
  EXPECT_EQ(CapacityStep({}, kLimit, kShare), -1);
}

TEST(CpuSplit, SubtractsGeneratorThread) {
  const CpuSplit s = SplitCpu(/*process=*/3.0, /*generator=*/1.0, 1'000'000);
  EXPECT_DOUBLE_EQ(s.tier_cpu_s, 2.0);
  EXPECT_DOUBLE_EQ(s.generator_cpu_s, 1.0);
  EXPECT_DOUBLE_EQ(s.tier_us_per_op, 2.0);
  EXPECT_DOUBLE_EQ(s.generator_us_per_op, 1.0);
}

TEST(CpuSplit, ClampsAndHandlesZeroOps) {
  const CpuSplit skew = SplitCpu(0.9, 1.0, 10);
  EXPECT_DOUBLE_EQ(skew.tier_cpu_s, 0.0);
  const CpuSplit none = SplitCpu(2.0, 1.0, 0);
  EXPECT_DOUBLE_EQ(none.tier_us_per_op, 0.0);
  EXPECT_DOUBLE_EQ(none.tier_cpu_s, 1.0);
}

TEST(RemoteKeyShare, MatchesShardOfKey) {
  spotcache::Rng rng(42);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back(rng.NextBelow(100'000));
  }
  const std::vector<int> conn_shards = {0, 1, 1, 0};
  uint64_t remote = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::string key = "lg:" + std::to_string(keys[i]);
    const uint32_t owner = spotcache::net::ShardOfKey(key, 2);
    remote += owner != static_cast<uint32_t>(conn_shards[i % 4]) ? 1 : 0;
  }
  EXPECT_DOUBLE_EQ(RemoteKeyShare(keys, "lg:", conn_shards, 2),
                   static_cast<double>(remote) / keys.size());
}

TEST(RemoteKeyShare, SingleShardAndFailedProbes) {
  const std::vector<uint64_t> keys = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(RemoteKeyShare(keys, "lg:", {0}, 1), 0.0);
  EXPECT_DOUBLE_EQ(RemoteKeyShare(keys, "lg:", {-1, -1}, 2), 0.0);
  EXPECT_DOUBLE_EQ(RemoteKeyShare({}, "lg:", {0, 1}, 2), 0.0);
  // Every op on one connection whose shard owns nothing of "lg:1".
  const uint32_t owner = spotcache::net::ShardOfKey("lg:1", 2);
  EXPECT_DOUBLE_EQ(RemoteKeyShare({1}, "lg:", {static_cast<int>(1 - owner)}, 2),
                   1.0);
}

TEST(Ledger, RemainderIsTotalMinusRows) {
  const Ledger l = BuildLedger(10.0, {{"a", 1.0}, {"b", 2.5}});
  EXPECT_DOUBLE_EQ(l.remainder_us_per_op, 6.5);
  EXPECT_TRUE(l.consistent);
}

TEST(Ledger, RemainderNeverNegative) {
  const Ledger l = BuildLedger(1.0, {{"a", 0.8}, {"b", 0.7}});
  EXPECT_DOUBLE_EQ(l.remainder_us_per_op, 0.0);
  EXPECT_FALSE(l.consistent);
  const Ledger zero = BuildLedger(0.0, {});
  EXPECT_DOUBLE_EQ(zero.remainder_us_per_op, 0.0);
  EXPECT_TRUE(zero.consistent);
}

TEST(Quantiles, InterpolatesInsideBuckets) {
  spotcache::LogHistogram h(1e-6, 1.05);
  for (int i = 1; i <= 1000; ++i) {
    h.Record(i * 1e-6);
  }
  // Within one bucket width (5%) of the exact order statistic.
  EXPECT_NEAR(HistQuantile(h, 0.5), 500e-6, 500e-6 * 0.05);
  EXPECT_NEAR(HistQuantile(h, 0.99), 990e-6, 990e-6 * 0.05);
  EXPECT_DOUBLE_EQ(HistQuantile(spotcache::LogHistogram(1e-6, 1.05), 0.5), 0.0);
}

TEST(Quantiles, DeltaSubtractsBuckets) {
  spotcache::LogHistogram before(1e-6, 1.05), after(1e-6, 1.05);
  for (int i = 0; i < 100; ++i) {
    before.Record(10e-6);
    after.Record(10e-6);
  }
  for (int i = 0; i < 50; ++i) {
    after.Record(100e-6);
  }
  const spotcache::LogHistogram d = HistDelta(after, before);
  EXPECT_EQ(d.count(), 50u);
  EXPECT_NEAR(HistQuantile(d, 0.5), 100e-6, 100e-6 * 0.05);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(Spans, SelfTimeSubtractsChildCoverage) {
  SpanRecorder rec;
  const uint64_t root = rec.Add("root", 0, 100);
  rec.Add("child", 10, 30, root);
  rec.Add("child", 20, 50, root);   // overlaps the first child
  rec.Add("child", 90, 120, root);  // runs past the parent's end
  const auto self = rec.SelfTimes();
  EXPECT_EQ(self.at("root").total_ns, 100);
  EXPECT_EQ(self.at("root").self_ns, 100 - 40 - 10);
  EXPECT_EQ(self.at("child").count, 3u);
  EXPECT_EQ(self.at("child").self_ns, 20 + 30 + 30);
}

}  // namespace
}  // namespace perfbench
