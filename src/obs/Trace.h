//===- obs/Trace.h - Solver phase tracing -----------------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scoped-span phase tracing for the allocation pipeline.  A PhaseSpan on
/// the stack marks one solver stage; when observability is off the guard is
/// a single relaxed atomic load and a predictable branch, so instrumented
/// code is free in the common case.
///
/// Two independent consumers hang off the spans:
///
///  - TraceCollector buffers begin/end events per thread and serializes them
///    as Chrome trace format JSON ("traceEvents" with complete "X" phases),
///    loadable in chrome://tracing and Perfetto.  In deterministic mode
///    (used under --no-timing and by the metrics-quiet fuzz oracle)
///    timestamps are a global sequence counter instead of a clock, so two
///    identical single-threaded runs emit byte-identical traces (with
///    several threads, the schedule decides each span's thread and
///    sequence number).
///
///  - Phase accounting, switched on per thread by ScopedPhaseAccounting,
///    feeds per-phase *self-time* totals (child spans subtracted) into
///    thread-local PhaseTotals.  The batch driver folds them into per-job
///    totals and hands them to its caller through run()'s phase sink, the
///    one owner of phase timing.
///
/// Spans nest but must strictly nest per thread (RAII enforces this); the
/// collector's control surface (enable/disable/clear/toJson) must not race
/// with live spans.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_OBS_TRACE_H
#define LAYRA_OBS_TRACE_H

#include "support/Json.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace layra {

/// The solver stage taxonomy.  Order is the report/trace emission order;
/// names (phaseName) are the span names and the metric name stems.
enum class Phase : unsigned {
  Pipeline,     ///< One whole runAllocationPipeline call.
  SpillRound,   ///< One build/allocate/spill/rewrite round.
  ProblemBuild, ///< buildSsaProblem / buildGeneralProblem.
  Liveness,     ///< Dataflow liveness solve.
  SpillCosts,   ///< Use-frequency spill cost computation.
  Interference, ///< Interference graph construction.
  McsPeo,       ///< Maximum cardinality search / PEO machinery.
  CliqueTreeDp, ///< Clique-tree construction and bounded-layer DP.
  StableSet,    ///< Maximum weighted stable set on chordal graphs.
  Allocate,     ///< Whole allocateProblem dispatch.
  MinCostFlow,  ///< Successive-shortest-path min-cost flow.
  Simplex,      ///< LP relaxation solves.
  Ilp,          ///< Branch-and-bound binary packing.
  SpillRewrite, ///< Load/store rewrite of the chosen spill set.
  OperandFold,  ///< Memory-operand folding pass.
  Assign,       ///< Final color/register assignment.
};

inline constexpr unsigned kNumPhases = 16;

/// Stable lower_snake_case name of \p P ("pipeline", "mcs_peo", ...).
const char *phaseName(Phase P);

/// Per-thread accumulated phase statistics.  Ms is *self* time: a phase's
/// total minus time spent in nested child phases, so summing every phase
/// reconstructs (not double-counts) the wall time under the outermost span.
struct PhaseTotals {
  double Ms[kNumPhases] = {};
  uint64_t Count[kNumPhases] = {};
};

namespace obs {

/// Observability switches, checked on every span with one relaxed load
/// of the process-wide word plus one read of the calling thread's word.
/// Zero means every instrumentation point is a no-op.
enum : uint32_t {
  kTraceEvents = 1u << 0,     ///< Buffer spans into TraceCollector.
  kPhaseAccounting = 1u << 1, ///< Accumulate this thread's PhaseTotals.
};

/// Process-wide switches (TraceCollector::enable).
extern std::atomic<uint32_t> Flags;
/// The calling thread's additions (ScopedPhaseAccounting).  Defined inline
/// so every translation unit sees a constant-initialized variable with no
/// TLS init-function wrapper (whose weak-symbol check UBSan misreports as
/// a null load).
inline thread_local uint32_t ThreadFlags = 0;

inline uint32_t activeFlags() {
  return Flags.load(std::memory_order_relaxed) | ThreadFlags;
}

/// RAII scope turning phase accounting on for the calling thread only
/// (when \p Enable), restoring the thread's previous state on exit.  This
/// is the only accounting switch: the batch driver wraps each task of a
/// run that has a phase sink in one, so concurrent runs never switch each
/// other's accounting.
class ScopedPhaseAccounting {
public:
  explicit ScopedPhaseAccounting(bool Enable) : Saved(ThreadFlags) {
    if (Enable)
      ThreadFlags |= kPhaseAccounting;
  }
  ~ScopedPhaseAccounting() { ThreadFlags = Saved; }
  ScopedPhaseAccounting(const ScopedPhaseAccounting &) = delete;
  ScopedPhaseAccounting &operator=(const ScopedPhaseAccounting &) = delete;

private:
  const uint32_t Saved;
};

/// The calling thread's accumulated phase totals (monotone; the driver
/// snapshots before/after a task and works with the delta).
const PhaseTotals &threadPhaseTotals();

void spanBegin(Phase P, uint32_t Mode);
void spanEnd();

} // namespace obs

/// RAII scope marking one solver stage.  Constructing with observability
/// disabled costs one atomic load, one thread-local read and a not-taken
/// branch.
class PhaseSpan {
public:
  explicit PhaseSpan(Phase P) : Mode(obs::activeFlags()) {
    if (Mode != 0)
      obs::spanBegin(P, Mode);
  }
  ~PhaseSpan() {
    if (Mode != 0)
      obs::spanEnd();
  }
  PhaseSpan(const PhaseSpan &) = delete;
  PhaseSpan &operator=(const PhaseSpan &) = delete;

private:
  const uint32_t Mode;
};

/// Collects span events and serializes Chrome trace format JSON.
class TraceCollector {
public:
  /// One completed span.  In deterministic mode TsUs/DurUs are sequence
  /// numbers, not microseconds; nesting order is still faithful.
  struct Event {
    Phase P;
    double TsUs;
    double DurUs;
  };

  TraceCollector();
  ~TraceCollector();
  TraceCollector(const TraceCollector &) = delete;
  TraceCollector &operator=(const TraceCollector &) = delete;

  /// The process-wide collector PhaseSpan reports into.
  static TraceCollector &global();

  /// Starts buffering span events.  \p Deterministic replaces the clock
  /// with a global sequence counter (byte-identical traces across
  /// single-threaded runs).
  /// Resets the time origin; previously buffered events are kept.
  void enable(bool Deterministic = false);

  /// Stops buffering (clears the trace flag).  Buffered events remain
  /// available for toJson()/writeTo() until clear().
  void disable();

  bool enabled() const;
  bool deterministic() const { return Det; }

  /// Drops all buffered events.
  void clear();

  uint64_t eventCount() const;

  /// Chrome trace document: {"traceEvents": [...], "displayTimeUnit":"ms"}.
  /// Events are complete ("ph":"X") with pid 1 and one tid per recording
  /// thread, ordered by (tid, ts).  Call only with no spans in flight.
  JsonValue toJson() const;

  /// Serializes toJson() into \p Out; false on write failure.
  bool writeTo(std::FILE *Out) const;

  // Internal span plumbing (public for obs::spanEnd).
  void append(const Event &E);
  uint64_t nextSeq() { return Seq.fetch_add(1, std::memory_order_relaxed); }
  double nowUs() const;

private:
  struct ThreadBuf;
  ThreadBuf &localBuf();

  const uint64_t Serial;
  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<ThreadBuf>> Buffers;
  std::atomic<uint64_t> Seq{0};
  std::atomic<uint64_t> Generation{1};
  bool Det = false;
  std::chrono::steady_clock::time_point Epoch;
};

} // namespace layra

#endif // LAYRA_OBS_TRACE_H
