//===- tests/obs/MetricsTest.cpp - Histogram and exposition tests ---------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics core (obs/Metrics.h): log-linear bucket geometry, percentile
/// readout against an exact sorted reference, snapshot merging, and the
/// Prometheus/text expositions.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

using namespace layra;

//===----------------------------------------------------------------------===//
// Bucket geometry
//===----------------------------------------------------------------------===//

TEST(HistogramBucketsTest, BucketsPartitionTheTickRange) {
  // Every bucket's [low, high) range must start exactly where the previous
  // one ended: no gaps, no overlaps, over the whole geometry.
  uint64_t PrevHigh = 0;
  for (unsigned I = 0; I < hist::kNumBuckets; ++I) {
    EXPECT_EQ(hist::bucketLowTicks(I), PrevHigh) << "bucket " << I;
    EXPECT_GT(hist::bucketHighTicks(I), hist::bucketLowTicks(I))
        << "bucket " << I;
    PrevHigh = hist::bucketHighTicks(I);
  }
  EXPECT_EQ(PrevHigh, UINT64_MAX);
}

TEST(HistogramBucketsTest, BucketIndexRoundTripsBoundaries) {
  // Each bucket's own boundaries map back to it: the low tick is inside,
  // the high tick belongs to the next bucket.
  for (unsigned I = 0; I < hist::kNumBuckets; ++I) {
    EXPECT_EQ(hist::bucketIndex(hist::bucketLowTicks(I)), I);
    uint64_t High = hist::bucketHighTicks(I);
    if (High != UINT64_MAX)
      EXPECT_EQ(hist::bucketIndex(High), I + 1);
    else
      EXPECT_EQ(hist::bucketIndex(UINT64_MAX), I);
  }
}

TEST(HistogramBucketsTest, LowBucketsAreExact) {
  // The first 16 ticks each get their own bucket: sub-bucket-resolution
  // values are counted exactly, not quantized.
  for (uint64_t T = 0; T < hist::kSubBuckets; ++T) {
    EXPECT_EQ(hist::bucketIndex(T), T);
    EXPECT_EQ(hist::bucketLowTicks(unsigned(T)), T);
    EXPECT_EQ(hist::bucketHighTicks(unsigned(T)), T + 1);
  }
}

TEST(HistogramBucketsTest, RelativeWidthBoundedBySixteenth) {
  // Above the exact range, bucket width / low bound <= 1/16: the promised
  // worst-case relative quantization error.
  for (unsigned I = hist::kSubBuckets; I < hist::kNumBuckets - 1; ++I) {
    uint64_t Lo = hist::bucketLowTicks(I);
    uint64_t Width = hist::bucketHighTicks(I) - Lo;
    EXPECT_LE(double(Width) / double(Lo), 1.0 / 16.0 + 1e-12)
        << "bucket " << I;
  }
}

TEST(HistogramBucketsTest, MsToTicksClampsAndQuantizes) {
  EXPECT_EQ(hist::msToTicks(-1.0), 0u);
  EXPECT_EQ(hist::msToTicks(0.0), 0u);
  // 1 ms = 1024 ticks exactly (binary scale).
  EXPECT_EQ(hist::msToTicks(1.0), uint64_t(hist::kTicksPerMs));
  // Absurdly large durations saturate instead of overflowing to 0.
  EXPECT_GT(hist::msToTicks(1e30), uint64_t(1) << 62);
}

//===----------------------------------------------------------------------===//
// Percentiles vs an exact reference
//===----------------------------------------------------------------------===//

namespace {

double exactPercentile(std::vector<double> Sorted, double Q) {
  size_t Rank = size_t(std::ceil(Q * double(Sorted.size())));
  Rank = std::max<size_t>(Rank, 1);
  Rank = std::min(Rank, Sorted.size());
  return Sorted[Rank - 1];
}

} // namespace

TEST(HistogramTest, PercentilesTrackExactReferenceWithinBucketError) {
  Histogram H;
  std::vector<double> Values;
  Rng R(20260808);
  for (unsigned I = 0; I < 5000; ++I) {
    // Log-uniform over roughly [0.01ms, 1000ms] -- the latency shape the
    // histogram is built for.
    double Ms = std::pow(10.0, -2.0 + 5.0 * R.nextDouble());
    Values.push_back(Ms);
    H.record(Ms);
  }
  std::sort(Values.begin(), Values.end());
  HistogramSnapshot Snap = H.snapshot();
  ASSERT_EQ(Snap.Count, Values.size());
  for (double Q : {0.50, 0.90, 0.95, 0.99}) {
    double Exact = exactPercentile(Values, Q);
    double Approx = Snap.percentile(Q);
    // The estimate may be off by one bucket width (1/16 relative) plus the
    // one-tick quantization floor.
    double Tolerance = Exact / 16.0 + 2.0 / hist::kTicksPerMs;
    EXPECT_NEAR(Approx, Exact, Tolerance) << "q=" << Q;
  }
}

TEST(HistogramTest, EmptyAndSingleSampleEdges) {
  Histogram H;
  EXPECT_EQ(H.snapshot().Count, 0u);
  EXPECT_EQ(H.snapshot().percentile(0.99), 0.0);
  H.record(2.5);
  HistogramSnapshot Snap = H.snapshot();
  EXPECT_EQ(Snap.Count, 1u);
  // Every percentile of a single sample is that sample (within a bucket).
  EXPECT_NEAR(Snap.percentile(0.50), 2.5, 2.5 / 16.0 + 0.01);
  EXPECT_NEAR(Snap.percentile(0.99), 2.5, 2.5 / 16.0 + 0.01);
  EXPECT_NEAR(Snap.meanMs(), 2.5, 0.01);
}

TEST(HistogramTest, MergeAccumulatesCounts) {
  Histogram A, B;
  for (int I = 0; I < 10; ++I)
    A.record(1.0);
  for (int I = 0; I < 30; ++I)
    B.record(100.0);
  HistogramSnapshot SA = A.snapshot();
  SA.merge(B.snapshot());
  EXPECT_EQ(SA.Count, 40u);
  // 10 fast + 30 slow: the median sits in the slow mode.
  EXPECT_GT(SA.percentile(0.5), 50.0);
  EXPECT_LT(SA.percentile(0.1), 2.0);
}

TEST(HistogramTest, ConcurrentRecordsAllLand) {
  // record() is wait-free relaxed adds: concurrent writers (the server's
  // shard workers) lose no sample.
  Histogram H;
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 10000;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([&H] {
      for (unsigned I = 0; I < kPerThread; ++I)
        H.record(1.0);
    });
  for (std::thread &T : Threads)
    T.join();
  HistogramSnapshot Snap = H.snapshot();
  EXPECT_EQ(Snap.Count, uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(Snap.SumTicks, Snap.Count * hist::msToTicks(1.0));
}

//===----------------------------------------------------------------------===//
// Expositions
//===----------------------------------------------------------------------===//

TEST(MetricsSnapshotTest, PrometheusTextSanitizesAndCumulates) {
  Histogram H;
  H.record(0.5);
  H.record(0.5);
  H.record(200.0);
  MetricsSnapshot Snap;
  Snap.Counters.push_back({"layra.test.requests", 5});
  Snap.Histograms.push_back(H.snapshot());
  Snap.Histograms.back().Name = "layra.test.latency_ms";
  std::string Text = Snap.toPrometheusText();
  // Dots sanitize to underscores; TYPE lines announce each family.
  EXPECT_NE(Text.find("# TYPE layra_test_requests counter"),
            std::string::npos);
  EXPECT_NE(Text.find("layra_test_requests 5"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE layra_test_latency_ms histogram"),
            std::string::npos);
  // _count and _sum series exist and the bucket counts are cumulative:
  // the final occupied bucket must read 3.
  EXPECT_NE(Text.find("layra_test_latency_ms_count 3"), std::string::npos);
  EXPECT_NE(Text.find("layra_test_latency_ms_sum"), std::string::npos);
  EXPECT_NE(Text.find("} 3\n"), std::string::npos);
}

TEST(MetricsSnapshotTest, TextViewFiltersByPrefix) {
  MetricsSnapshot Snap;
  Snap.Counters.push_back({"alpha.one", 1});
  Snap.Gauges.push_back({"beta.two", 2.0});
  std::string Alpha = Snap.toText("alpha.");
  EXPECT_NE(Alpha.find("alpha.one"), std::string::npos);
  EXPECT_EQ(Alpha.find("beta.two"), std::string::npos);
}
