//===- tests/service/StatsGoldenTest.cpp - Stats serializer goldens -------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden-file tests for the server statistics serializers: the
/// `layra-serve-stats/v4` JSON payload (untraced and traced) and the
/// Prometheus exposition (disk cache on and off) of one fixed ServerStats
/// are compared byte-for-byte against fixtures committed under
/// tests/service/golden/.  Clients (layra-loadgen, the serve benchmark,
/// CI) read these bytes by name, so any drift must show up as a
/// reviewable fixture diff.
///
/// Regenerating after an *intentional* format change:
///   LAYRA_UPDATE_GOLDEN=1 ./service_StatsGoldenTest
/// then commit the rewritten fixtures.
///
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace layra;

namespace {

/// The fixed snapshot behind every fixture: two shards, a 50-sample
/// service-time histogram, and (optionally) a disk cache.  Changing the
/// values invalidates the fixtures by design.
ServerStats goldenStats(bool WithDisk) {
  Histogram Service;
  for (unsigned I = 1; I <= 50; ++I)
    Service.record(0.01 * double(I * I));

  ServerStats S;
  S.RequestsAllocate = 40;
  S.RequestsSubmitIr = 57;
  S.RequestsStats = 3;
  S.RequestsPing = 5;
  S.RequestsFailed = 2;
  S.RequestsRejected = 1;
  S.ConnectionsAccepted = 9;
  S.ConnectionsRejected = 1;
  S.ConnectionsActive = 2;
  S.Threads = 2;
  S.UptimeMs = 1234.5;
  S.ServiceLatency = Service.snapshot();
  S.InlineBusyMs = 1.75;

  ShardStats A;
  A.Requests = 45;
  A.BusyMs = 210.25;
  A.Cache.Entries = 30;
  A.Cache.Capacity = 64;
  A.Cache.Hits = 12;
  A.Cache.Misses = 33;
  A.Cache.Evictions = 0;
  A.Delta.Hits = 7;
  A.Delta.Fallbacks = 1;
  A.Delta.Bases = 5;
  A.Queue = {1, 4, 8};
  ShardStats B;
  B.Requests = 52;
  B.BusyMs = 305.5;
  B.Cache.Entries = 41;
  B.Cache.Capacity = 64;
  B.Cache.Hits = 20;
  B.Cache.Misses = 32;
  B.Cache.Evictions = 3;
  B.Delta.Hits = 9;
  B.Delta.Fallbacks = 0;
  B.Delta.Bases = 6;
  B.Queue = {0, 6, 8};
  S.PerShard = {A, B};

  if (WithDisk) {
    DiskCacheStats D;
    D.Entries = 60;
    D.Bytes = 123456;
    D.Hits = 11;
    D.Misses = 54;
    D.Writes = 50;
    D.Evictions = 2;
    D.TouchFailures = 1;
    S.Disk = D;
  }
  return S;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

void compareToGolden(const std::string &Actual, const std::string &File) {
  std::string Path =
      std::string(LAYRA_SOURCE_DIR) + "/tests/service/golden/" + File;
  if (std::getenv("LAYRA_UPDATE_GOLDEN")) {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot rewrite fixture " << Path;
    Out << Actual;
    return;
  }
  std::string Expected = readFile(Path);
  ASSERT_FALSE(Expected.empty())
      << "missing fixture " << Path
      << " (run with LAYRA_UPDATE_GOLDEN=1 to create it)";
  EXPECT_EQ(Expected, Actual)
      << "serializer drift vs. " << Path
      << "; if intentional, regenerate with LAYRA_UPDATE_GOLDEN=1 and "
         "review the fixture diff";
}

} // namespace

TEST(StatsGolden, StatsResponseMatchesFixture) {
  compareToGolden(makeStatsResponse(goldenStats(/*WithDisk=*/true)),
                  "stats.json");
}

TEST(StatsGolden, TracedStatsResponseMatchesFixture) {
  compareToGolden(
      makeStatsResponse(goldenStats(/*WithDisk=*/true), "0123456789abcdef"),
      "stats_traced.json");
}

TEST(StatsGolden, StatsResponseWithoutDiskCacheMatchesFixture) {
  compareToGolden(makeStatsResponse(goldenStats(/*WithDisk=*/false)),
                  "stats_nodisk.json");
}

TEST(StatsGolden, MetricsExpositionMatchesFixture) {
  compareToGolden(makeMetricsExposition(goldenStats(/*WithDisk=*/true)),
                  "metrics.prom");
}

TEST(StatsGolden, MetricsExpositionWithoutDiskCacheMatchesFixture) {
  compareToGolden(makeMetricsExposition(goldenStats(/*WithDisk=*/false)),
                  "metrics_nodisk.prom");
}
