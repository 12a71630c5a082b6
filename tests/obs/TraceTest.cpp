//===- tests/obs/TraceTest.cpp - Phase tracer tests -----------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The phase tracer (obs/Trace.h): Chrome-trace JSON from a real pipeline
/// run parses under the strict support/Json parser with properly nested
/// spans, deterministic mode yields byte-identical traces, a disabled
/// tracer emits nothing, and enabling the full observability surface does
/// not change a timing-free driver report.
///
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "driver/BatchDriver.h"
#include "driver/ReportIO.h"
#include "ir/Dominators.h"
#include "ir/LoopInfo.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace layra;

namespace {

Function makeSsaFunction(uint64_t Seed, unsigned NumVars = 14) {
  Rng R(Seed);
  ProgramGenOptions Opt;
  Opt.NumVars = NumVars;
  Opt.MaxBlocks = 20;
  Function F = generateFunction(R, Opt);
  DominatorTree Dom(F);
  LoopInfo Loops(F, Dom);
  Loops.annotate(F);
  return convertToSsa(F).Ssa;
}

/// Every test leaves the global obs state exactly as it found it (off),
/// so test order cannot leak tracer state into unrelated suites.
struct ObsQuiesce {
  ~ObsQuiesce() {
    TraceCollector::global().disable();
    TraceCollector::global().clear();
  }
};

PipelineResult runOnce(uint64_t Seed, unsigned Regs = 4) {
  Function F = makeSsaFunction(Seed);
  return runAllocationPipeline(F, ST231, Regs);
}

} // namespace

TEST(TraceTest, DisabledTracerEmitsNothing) {
  ObsQuiesce Quiesce;
  TraceCollector &TC = TraceCollector::global();
  TC.disable();
  TC.clear();
  runOnce(3);
  EXPECT_EQ(TC.eventCount(), 0u);
  // An empty trace is still a valid document.
  JsonParseResult Parsed = parseJson(TC.toJson().dump(0));
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
  const JsonValue *Events = Parsed.Value.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  EXPECT_EQ(Events->size(), 0u);
}

TEST(TraceTest, PipelineTraceParsesAndCarriesExpectedSpans) {
  ObsQuiesce Quiesce;
  TraceCollector &TC = TraceCollector::global();
  TC.clear();
  TC.enable(/*Deterministic=*/true);
  runOnce(5, /*Regs=*/4);
  TC.disable();
  ASSERT_GT(TC.eventCount(), 0u);

  JsonParseResult Parsed = parseJson(TC.toJson().dump(2));
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error << " at line " << Parsed.Line;

  const JsonValue *Events = Parsed.Value.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_GT(Events->size(), 0u);
  std::set<std::string> Names;
  for (const JsonValue &E : Events->elements()) {
    ASSERT_NE(E.find("ph"), nullptr);
    EXPECT_EQ(E.find("ph")->stringValue(), "X");
    EXPECT_EQ(E.find("cat")->stringValue(), "layra");
    EXPECT_GE(E.find("dur")->numberValue(), 0.0);
    Names.insert(E.find("name")->stringValue());
  }
  // The stages every ST231 pipeline run must pass through.
  for (const char *Expected :
       {"pipeline", "problem_build", "liveness", "spill_costs",
        "interference", "mcs_peo", "allocate", "assign"})
    EXPECT_TRUE(Names.count(Expected)) << Expected;
}

TEST(TraceTest, SpansNestProperlyPerThread) {
  ObsQuiesce Quiesce;
  TraceCollector &TC = TraceCollector::global();
  TC.clear();
  TC.enable(/*Deterministic=*/true);
  runOnce(9, /*Regs=*/3);
  TC.disable();

  JsonValue Doc = TC.toJson();
  const JsonValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_GT(Events->size(), 0u);
  // Group by tid; within a thread, spans sorted by (ts asc, dur desc) must
  // form a proper forest: each span either contains or is disjoint from
  // the next, never partially overlapping.
  std::map<long long, std::vector<std::pair<double, double>>> ByTid;
  for (const JsonValue &E : Events->elements())
    ByTid[E.find("tid")->intValue()].push_back(
        {E.find("ts")->numberValue(), E.find("dur")->numberValue()});
  for (auto &Entry : ByTid) {
    auto &Spans = Entry.second;
    std::vector<std::pair<double, double>> Stack; // (start, end)
    for (const auto &[Ts, Dur] : Spans) {
      double End = Ts + Dur;
      while (!Stack.empty() && Ts >= Stack.back().second)
        Stack.pop_back();
      if (!Stack.empty()) {
        // Open ancestor: this span must be fully contained in it.
        EXPECT_GE(Ts, Stack.back().first);
        EXPECT_LE(End, Stack.back().second);
      }
      Stack.push_back({Ts, End});
    }
  }
}

TEST(TraceTest, DeterministicModeIsReproducible) {
  ObsQuiesce Quiesce;
  TraceCollector &TC = TraceCollector::global();

  TC.clear();
  TC.enable(/*Deterministic=*/true);
  runOnce(11);
  TC.disable();
  std::string First = TC.toJson().dump(2);

  TC.clear();
  TC.enable(/*Deterministic=*/true);
  runOnce(11);
  TC.disable();
  std::string Second = TC.toJson().dump(2);

  EXPECT_EQ(First, Second);
}

TEST(TraceTest, ObservabilityDoesNotPerturbTimingFreeReports) {
  ObsQuiesce Quiesce;
  Function F = makeSsaFunction(21);
  Suite S;
  S.Name = "trace-test";
  SuiteProgram Prog;
  Prog.Name = F.name();
  Prog.Functions.push_back(std::move(F));
  S.Programs.push_back(std::move(Prog));
  BatchJob Job;
  Job.SuiteName = S.Name;
  Job.SuiteData = &S;
  Job.NumRegisters = 4;
  std::vector<BatchJob> Jobs{Job};

  TraceCollector &TC = TraceCollector::global();
  TC.disable();
  TC.clear();
  BatchDriver Quiet(1);
  std::string QuietJson =
      driverReportToJson(Quiet.run(Jobs), /*IncludeTiming=*/false,
                         /*IncludeTasks=*/true)
          .dump(2);

  TC.enable(/*Deterministic=*/true);
  BatchDriver Loud(1);
  std::vector<PhaseTotals> Phases;
  DriverReport LoudReport =
      Loud.run(Jobs, /*CacheTransparent=*/false, &Phases);
  std::string LoudJson =
      driverReportToJson(LoudReport, /*IncludeTiming=*/false,
                         /*IncludeTasks=*/true, &Phases)
          .dump(2);

  EXPECT_EQ(QuietJson, LoudJson);
}

TEST(TraceTest, PhaseSinkFillsJobBreakdowns) {
  ObsQuiesce Quiesce;
  Function F = makeSsaFunction(31);
  Suite S;
  S.Name = "trace-test";
  SuiteProgram Prog;
  Prog.Name = F.name();
  Prog.Functions.push_back(std::move(F));
  S.Programs.push_back(std::move(Prog));
  BatchJob Job;
  Job.SuiteName = S.Name;
  Job.SuiteData = &S;
  Job.NumRegisters = 4;

  BatchDriver Driver(1);
  std::vector<PhaseTotals> Phases;
  Driver.run({Job}, /*CacheTransparent=*/false, &Phases);

  ASSERT_EQ(Phases.size(), 1u);
  const PhaseTotals &JP = Phases[0];
  // Every solve enters the pipeline and final assignment at least once.
  EXPECT_GT(JP.Count[unsigned(Phase::Pipeline)], 0u);
  EXPECT_GT(JP.Count[unsigned(Phase::Allocate)], 0u);
  EXPECT_GT(JP.Count[unsigned(Phase::Assign)], 0u);
  // Self times are non-negative and their sum reconstructs (almost all of)
  // the run without double counting -- it cannot exceed total wall time by
  // more than rounding noise.
  double SelfSum = 0;
  for (unsigned P = 0; P < kNumPhases; ++P) {
    EXPECT_GE(JP.Ms[P], 0.0);
    SelfSum += JP.Ms[P];
  }
  EXPECT_GT(SelfSum, 0.0);
}
