//===- perfbench/src/Bench.cpp - Shared benchmark plumbing -----------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/Dominators.h"
#include "ir/Liveness.h"
#include "ir/LoopInfo.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace layra;

namespace perfbench {

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},          {"fns_per_s", "1/s"},
      {"spill_cost", "cost"},    {"spill_ops", "count"},
      {"peak_rss_mb", "MiB"},    {"ok_frac", "fraction"},
      {"p50_ms.low", "ms"},      {"new_p50_ms", "ms"},
      {"edit_p50_ms", "ms"},     {"repeat_p50_ms", "ms"},
  };
  return Defs;
}

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = [] {
    std::vector<MetricDef> D = {
        {"trace.tasks", "count"},
        {"suites.make_ms", "ms"},
        {"ir.ssa_ms", "ms"},
        {"ir.liveness_ms", "ms"},
        {"ir.interference_ms", "ms"},
        {"ir.parse_ms", "ms"},
        {"ir.spill_rewrite_ms", "ms"},
        {"ir.spill_loads", "count"},
        {"ir.spill_stores", "count"},
        {"ir.values", "count"},
        {"ir.instrs", "count"},
        {"graph.mcs_ms", "ms"},
        {"graph.cliques_ms", "ms"},
        {"graph.edges", "count"},
        {"graph.over_dense_cap", "count"},
        {"core.problem_build_self_ms", "ms"},
        {"core.clique_members", "count"},
        {"core.assign_ms", "ms"},
        {"core.delta_classify_ms", "ms"},
        {"core.delta_build_ms", "ms"},
        {"alloc.allocate_ms", "ms"},
        {"alloc.pipeline_ms", "ms"},
        {"alloc.later_rounds_ms", "ms"},
        {"alloc.rounds", "count"},
        {"alloc.unfit_tasks", "count"},
        {"driver.run_ms", "ms"},
        {"driver.overhead_ms", "ms"},
        {"driver.hash_ms", "ms"},
        {"driver.cache_hits", "count"},
        {"driver.cache_misses", "count"},
        {"driver.delta_hits", "count"},
        {"driver.delta_fallbacks", "count"},
        {"service.request_parse_ms", "ms"},
        {"service.accept_ms", "ms"},
        {"service.queue_wait_ms", "ms"},
        {"service.dispatch_ms", "ms"},
        {"service.driver_ms", "ms"},
        {"service.flush_net_ms", "ms"},
        {"service.queue_wait_ms.high", "ms"},
        {"service.rejected", "count"},
        {"service.response_bytes", "bytes"},
    };
    for (const char *Kind : {"new", "edit", "repeat"})
      for (const char *SpanName :
           {"accept", "queue_wait", "dispatch", "driver", "flush_net"})
        D.push_back({std::string("service.") + Kind + "." + SpanName + "_ms",
                     "ms"});
    // serve-jit latency under load and goodput: measured in the traced
    // run, with no bound, because their run-to-run spread on a shared host
    // exceeds any bound the end-to-end set may carry (perfbench/README.md).
    D.push_back({"p50_ms.high", "ms"});
    D.push_back({"p99_ms.low", "ms"});
    D.push_back({"p99_ms.high", "ms"});
    D.push_back({"goodput_rps", "1/s"});
    D.push_back({"unattributed_ms", "ms"});
    D.push_back({"trace_overhead_pct", "%"});
    D.push_back({"gen_late_ms.low", "ms"});
    D.push_back({"gen_late_ms.high", "ms"});
    return D;
  }();
  return Defs;
}

void RunResult::fail(const std::string &What) {
  ++Failed;
  if (Problems.size() < 8)
    Problems.push_back(What);
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * double(Values.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - double(Lo));
}

double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum / double(Values.size());
}

double peakRssMb(int Pid) {
  std::string Path =
      Pid ? "/proc/" + std::to_string(Pid) + "/status" : "/proc/self/status";
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0) {
      std::istringstream Fields(Line.substr(6));
      double Kb = 0;
      Fields >> Kb;
      return Kb / 1024.0;
    }
  return 0;
}

int SpanLog::begin(const char *Name, int Parent, uint64_t RequestId) {
  if (!Enabled)
    return -1;
  Spans.push_back({Name, nowMs(), 0, Parent, RequestId});
  return int(Spans.size() - 1);
}

void SpanLog::end(int Index) {
  if (Index >= 0)
    Spans[size_t(Index)].EndMs = nowMs();
}

void SpanLog::add(const char *Name, double StartMs, double EndMs, int Parent,
                  uint64_t RequestId) {
  if (Enabled)
    Spans.push_back({Name, StartMs, EndMs, Parent, RequestId});
}

bool SpanLog::write(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                 "\"end_ms\": %.6f, \"parent\": %d, \"request\": %llu}\n",
                 I, S.Name, S.StartMs, S.EndMs, S.Parent,
                 static_cast<unsigned long long>(S.RequestId));
  }
  return std::fclose(Out) == 0;
}

//===----------------------------------------------------------------------===//
// Seeded inputs
//===----------------------------------------------------------------------===//

uint64_t countInstrs(const Function &F) {
  uint64_t N = 0;
  for (const BasicBlock &B : F.blocks())
    N += B.Instrs.size();
  return N;
}

static void annotateLoops(Function &F) {
  DominatorTree Dom(F);
  LoopInfo Loops(F, Dom);
  Loops.annotate(F);
}

/// Appends pieces drawn from \p R to a function over one pool of \p Vars
/// variables until its SSA form has at least \p TargetValues values.  A
/// piece reads the variables earlier pieces left live, so live ranges cross
/// piece boundaries and the pool size sets the register pressure.
static Function chainPieces(Rng &R, unsigned TargetValues, unsigned Vars,
                            const std::string &Name) {
  ProgramGenOptions Shape;
  Shape.NumVars = Vars;
  Shape.NumParams = 4;
  Shape.MaxBlocks = 24;
  Shape.MaxNesting = 3;
  Shape.LoopProb = 0.40;
  Shape.IfProb = 0.30;
  Function Out(Name);
  for (unsigned V = 0; V < Vars; ++V)
    Out.makeValue("t" + std::to_string(V));
  BlockId PrevExit = kNoBlock;
  unsigned Values = 0;
  while (Values < TargetValues) {
    // generateFunction numbers its variables 0..Vars-1 in creation order,
    // so piece value ids coincide with the shared pool's.
    Function Piece = generateFunction(R, Shape, Name);
    Values += convertToSsa(Piece).Ssa.numValues();
    BlockId Offset = Out.numBlocks();
    for (BlockId B = 0; B < Piece.numBlocks(); ++B) {
      BlockId NB = Out.makeBlock("p" + std::to_string(Offset + B));
      Out.block(NB).Instrs = Piece.block(B).Instrs;
    }
    BlockId PieceExit = kNoBlock;
    for (BlockId B = 0; B < Piece.numBlocks(); ++B) {
      for (BlockId S : Piece.block(B).Succs)
        Out.addEdge(Offset + B, Offset + S);
      const std::vector<Instruction> &Instrs = Piece.block(B).Instrs;
      if (!Instrs.empty() && Instrs.back().Op == Opcode::Return)
        PieceExit = Offset + B;
    }
    if (PrevExit != kNoBlock) {
      // The previous piece's return becomes a branch into this piece; its
      // operands stay as branch uses, keeping those values live.
      Out.block(PrevExit).Instrs.back().Op = Opcode::Branch;
      Out.addEdge(PrevExit, Offset);
    }
    PrevExit = PieceExit;
  }
  return Out;
}

Suite makeLargeSuite(uint64_t Seed, bool Smoke) {
  // Target SSA sizes span the range where interference and clique work
  // outgrow the rest of the pipeline; the largest class crosses the
  // 4096-vertex dense-matrix cap once reload temporaries are added.
  struct SizeClass {
    unsigned Values;
    unsigned Vars;
  };
  static const SizeClass Full[] = {
      {500, 24}, {1000, 32}, {2000, 40}, {4000, 48}};
  static const SizeClass Tiny[] = {{300, 20}};
  const unsigned PerClass = Smoke ? 1 : 2;
  Rng Structure(kBaselineSeed * 0x9e3779b97f4a7c15ULL + 17);
  Rng Profile(Seed * 0xbf58476d1ce4e5b9ULL + 29);
  Suite S;
  S.Name = "batch-large";
  auto Classes = Smoke ? std::vector<SizeClass>(std::begin(Tiny), std::end(Tiny))
                       : std::vector<SizeClass>(std::begin(Full), std::end(Full));
  for (const SizeClass &C : Classes) {
    SuiteProgram Prog;
    Prog.Name = "v" + std::to_string(C.Values);
    for (unsigned I = 0; I < PerClass; ++I) {
      Function F = chainPieces(Structure, C.Values, C.Vars,
                               Prog.Name + "_f" + std::to_string(I));
      annotateLoops(F);
      // Seeded profile: every block count scaled by 100..130%.
      for (BasicBlock &B : F.blocks())
        B.Frequency =
            std::max<Weight>(1, B.Frequency * Weight(100 + Profile.nextBelow(31)) / 100);
      Prog.Functions.push_back(std::move(F));
    }
    S.Programs.push_back(std::move(Prog));
  }
  return S;
}

Function makeJitFunction(Rng &R, const std::string &Name) {
  // The eembc shape (suites/Suites.cpp): small loop-dominated kernels of
  // ~90-250 SSA values, the size a JIT hands its register allocator.  Like
  // the suites, redraw the rare function whose pressure exceeds 24.
  for (;;) {
    ProgramGenOptions Shape;
    Shape.NumVars = 16 + unsigned(R.nextBelow(9));
    Shape.NumParams = 4;
    Shape.MaxBlocks = 24 + unsigned(R.nextBelow(13));
    Shape.MaxNesting = 3;
    Shape.ExprsPerBlockMin = 2;
    Shape.ExprsPerBlockMax = 5;
    Shape.LoopProb = 0.45;
    Shape.IfProb = 0.25;
    Function F = generateFunction(R, Shape, Name);
    if (Liveness(F).maxLive(F) > 24)
      continue;
    annotateLoops(F);
    Function Ssa = convertToSsa(F).Ssa;
    if (Ssa.numValues() >= 90 && Ssa.numValues() <= 250)
      return Ssa;
  }
}

Function frequencyEdit(const Function &F, Rng &R) {
  Function Out = F;
  unsigned Edits = 1 + unsigned(R.nextBelow(3));
  for (unsigned I = 0; I < Edits; ++I) {
    BasicBlock &B = Out.block(BlockId(R.nextBelow(Out.numBlocks())));
    B.Frequency += 1 + Weight(R.nextBelow(9)) * B.Frequency / 4;
  }
  return Out;
}

bool structuralEdit(const Function &F, Function &Out) {
  Out = F;
  BasicBlock &Entry = Out.block(0);
  ValueId Reused = kNoValue;
  for (size_t I = 0; I + 1 < Entry.Instrs.size() && Reused == kNoValue; ++I)
    for (ValueId D : Entry.Instrs[I].Defs)
      Reused = D;
  if (Reused == kNoValue || Entry.Instrs.empty() ||
      !Entry.Instrs.back().isTerminator())
    return false;
  Entry.Instrs.back().Uses.push_back(Reused);
  return true;
}

} // namespace perfbench
