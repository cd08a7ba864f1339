// Tests of the benchmark's metric code (perfbench/src/metrics.h).
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include "metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace {

using hetis::engine::RequestRecord;
using hetis::engine::SloSpec;

RequestRecord record(int id, double arrival, double first_token, double finish, int out = 11) {
  RequestRecord r;
  r.id = id;
  r.arrival = arrival;
  r.first_token = first_token;
  r.finish = finish;
  r.prompt_len = 100;
  r.output_len = out;
  return r;
}

TEST(Percentile, KnownSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);  // 1..101
  EXPECT_DOUBLE_EQ(perfbench::percentile(v, 50), 51.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile(v, 99), 100.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile(v, 100), 101.0);
}

TEST(Percentile, InterpolatesAndIgnoresOrder) {
  EXPECT_DOUBLE_EQ(perfbench::percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::percentile({10, 0}, 99), 9.9);
  EXPECT_DOUBLE_EQ(perfbench::percentile({7}, 99), 7.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile({}, 50), 0.0);
}

TEST(Grade, AttainmentIsOverRequestsSent) {
  const SloSpec slo{2.0, 0.15};
  std::vector<RequestRecord> recs = {
      record(0, 0.0, 1.0, 2.0),   // meets: ttft 1, tpot 0.1
      record(1, 0.0, 3.0, 4.0),   // misses TTFT
      record(2, 0.0, 1.0, -1.0),  // prefilled, never finished: a miss
      record(3, 0.0, -1.0, -1.0), // never prefilled: a miss
  };
  // Request 4 was sent but never reached the collector: also a miss.
  const perfbench::Grade g = perfbench::grade(recs, 5, slo);
  EXPECT_EQ(g.sent, 5u);
  EXPECT_EQ(g.finished, 2u);
  EXPECT_EQ(g.unfinished, 3u);
  EXPECT_EQ(g.attained, 1u);
  EXPECT_DOUBLE_EQ(g.attainment(), 0.2);
  EXPECT_DOUBLE_EQ(g.unfinished_frac(), 0.6);
  EXPECT_LE(g.attainment(), 1.0 - g.unfinished_frac());
  EXPECT_FALSE(g.meets(0.1));  // unfinished requests fail the rate search
}

TEST(Grade, UnfinishedIsCountedApartFromFinished) {
  const SloSpec slo{2.0, 0.15};
  const std::vector<RequestRecord> recs = {record(0, 0.0, 1.0, 2.0), record(1, 0.0, 1.0, -1.0),
                                           record(2, 0.0, -1.0, -1.0)};
  // Two requests sent without a record are unfinished too.
  perfbench::Grade g = perfbench::grade(recs, 5, slo);
  EXPECT_EQ(g.finished, 1u);
  EXPECT_EQ(g.unfinished, 4u);
  // More records than requests sent breaks sent = finished + unfinished.
  g = perfbench::grade(recs, 2, slo);
  EXPECT_EQ(g.finished, 1u);
  EXPECT_EQ(g.unfinished, 2u);
  EXPECT_NE(g.sent, g.finished + g.unfinished);
}

TEST(Grade, UnfinishedPrefilledRequestNeverPassesTpot) {
  // An unfinished record has finish = -1, which would give a negative TPOT
  // and "meet" the TPOT limit if it were graded; it must count as a miss.
  const perfbench::Grade g = perfbench::grade({record(0, 0.0, 0.5, -1.0)}, 1, SloSpec{2.0, 0.15});
  EXPECT_EQ(g.attained, 0u);
  EXPECT_DOUBLE_EQ(g.attainment(), 0.0);
}

TEST(Grade, MeetsNeedsTargetAndNothingUnfinished) {
  const SloSpec slo{2.0, 0.15};
  std::vector<RequestRecord> recs;
  for (int i = 0; i < 100; ++i) recs.push_back(record(i, 0.0, 1.0, 2.0));
  EXPECT_TRUE(perfbench::grade(recs, 100, slo).meets(0.99));
  recs[0] = record(0, 0.0, 5.0, 6.0);  // one miss: 0.99 still holds
  EXPECT_TRUE(perfbench::grade(recs, 100, slo).meets(0.99));
  recs[1] = record(1, 0.0, 5.0, 6.0);  // two misses: 0.98
  EXPECT_FALSE(perfbench::grade(recs, 100, slo).meets(0.99));
}

TEST(Bisect, FindsBoundaryOfMonotonePredicate) {
  const double boundary = 17.3;
  int calls = 0;
  auto ok = [&](double x) {
    ++calls;
    return x <= boundary;
  };
  const double found = perfbench::bisect_boundary(10.0, 30.0, 20, ok);
  EXPECT_EQ(calls, 20);
  EXPECT_LE(found, boundary);
  EXPECT_GT(found, boundary - 20.0 / (1 << 20));
}

TEST(Bisect, StaysAtLowerEndWhenEverythingAboveFails) {
  EXPECT_DOUBLE_EQ(perfbench::bisect_boundary(4.0, 8.0, 6, [](double x) { return x <= 4.0; }), 4.0);
}

TEST(Digest, ChangesWithAnyFieldAndEventCount) {
  std::vector<RequestRecord> recs = {record(0, 0.0, 1.0, 2.0), record(1, 0.5, 1.5, 3.0)};
  const std::string base = perfbench::run_digest(recs, 10);
  EXPECT_EQ(base, perfbench::run_digest(recs, 10));
  EXPECT_NE(base, perfbench::run_digest(recs, 11));
  recs[1].finish = 3.0000000000000004;  // one ulp
  EXPECT_NE(base, perfbench::run_digest(recs, 10));
}

TEST(RecordOrder, FlagsOutOfOrderRecords) {
  EXPECT_EQ(perfbench::check_record_order({record(0, 1.0, 2.0, 3.0), record(1, 1.0, -1, -1)}), "");
  EXPECT_NE(perfbench::check_record_order({record(0, 1.0, 0.5, 3.0)}), "");
  EXPECT_NE(perfbench::check_record_order({record(0, 1.0, 2.0, 1.5)}), "");
  EXPECT_NE(perfbench::check_record_order({record(0, 1.0, -1.0, 3.0)}), "");
}

TEST(PlanText, RoundTripsAndRejectsMalformedText) {
  hetis::parallel::ParallelPlan plan;
  hetis::parallel::InstanceConfig a;
  a.stages = {{{0, 1}, 26, 0}, {{4, 5}, 14, 1 << 20}};
  a.attention_workers = {8, 9};
  hetis::parallel::InstanceConfig b;
  b.stages = {{{2}, 40, 0}};
  plan.instances = {a, b};
  const std::string text = perfbench::plan_to_text(plan);
  EXPECT_EQ(text, "0.1:26:0/4.5:14:1048576@8,9;2:40:0@");
  EXPECT_TRUE(perfbench::plan_from_text(text) == plan);
  for (const char* bad : {"", "0.1:26@", "0.x:26:0@", "0:26:0", "0:26:0@1,", ":26:0@"}) {
    EXPECT_THROW(perfbench::plan_from_text(bad), std::invalid_argument) << bad;
  }
}

}  // namespace
