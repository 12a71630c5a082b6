//===- service/Server.h - Long-running allocation server --------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running allocation server behind the `layra-serve` binary.  It
/// listens on TCP and/or Unix-domain sockets and speaks the framed JSON
/// protocol of service/Protocol.h.
///
/// Threading model (the sharded event-loop core): ONE IO thread runs an
/// epoll (level-triggered; poll(2) fallback off Linux) event loop over
/// every listener and connection.  Connections are non-blocking; frames
/// are sliced out of per-connection read buffers without intermediate
/// copies and parsed in place.  Parsed allocate/submit_ir requests are
/// routed by content hash (routeRequestHash) to one of N shared-nothing
/// shard workers -- each shard owns a private BatchDriver (thread pool,
/// SolverWorkspace arenas, bounded content-hash LRU) so the hot path has
/// no cross-shard locks and the same work always lands on the same warm
/// cache.  Ping/stats and protocol errors are answered on the IO thread
/// itself.  Responses flow back through a per-connection ordered flush
/// queue keyed by per-connection sequence numbers, so pipelined clients
/// always see responses in request order no matter which shard finished
/// first.
///
/// Backpressure is two-level: each connection has a bounded in-flight
/// window (reading pauses while it is full, per-client fairness), and
/// each shard has a bounded queue -- a request arriving at a full shard
/// queue is *rejected* with an error reply and a Reject event rather
/// than buffered without bound.
///
/// Underneath the shard LRUs an optional persistent disk cache
/// (service/DiskCache.h, --disk-cache) stores every solved outcome
/// content-addressed by pipeline key, warm-starting shards across
/// process restarts.
///
/// Responses to `allocate`/`submit_ir` are byte-identical to what a direct
/// BatchDriver run of the same jobs would serialize (the driver's
/// cache-transparent mode reports hit/miss as a fresh driver would), so a
/// client cannot tell -- except by latency -- whether the shard cache or
/// the disk cache was warm.
///
/// Shutdown (requestStop / SIGTERM in layra-serve) is a drain, not an
/// abort: listeners close, already-buffered complete frames are still
/// dispatched, queued requests execute, and their responses are flushed
/// before wait() returns.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_SERVICE_SERVER_H
#define LAYRA_SERVICE_SERVER_H

#include "driver/BatchDriver.h"
#include "obs/Metrics.h"
#include "service/DiskCache.h"
#include "service/Protocol.h"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace layra {

/// Server configuration.  At least one of UnixPath / EnableTcp must be set.
struct ServerOptions {
  /// Unix-domain socket path; empty disables the Unix listener.  The file
  /// is created on start() and unlinked again when wait() finishes.
  std::string UnixPath;
  /// Enable the TCP listener.
  bool EnableTcp = false;
  /// TCP bind address; loopback by default (the service is unauthenticated
  /// by design -- see docs/PROTOCOL.md).
  std::string TcpHost = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port, read back with tcpPort().
  uint16_t TcpPort = 0;
  /// Driver pool size *per shard*; 0 = hardware concurrency.
  unsigned Threads = 0;
  /// Number of shared-nothing shard workers.  Each shard owns a private
  /// BatchDriver; requests are routed by routeRequestHash(Req) % Shards.
  /// 0 is normalized to 1.
  unsigned Shards = 1;
  /// Total bound across all shard content-hash caches, in entries; each
  /// shard gets CacheCapacity / Shards (at least 1).  The default keeps a
  /// long-lived server's memory proportional to the working set;
  /// 0 (unbounded) is for tests only.
  size_t CacheCapacity = 1u << 16;
  /// Largest accepted request/response payload.
  size_t MaxFrameBytes = kDefaultMaxFrameBytes;
  /// Bounded *per-shard* request-queue depth.  A request routed to a full
  /// shard queue is rejected with an error reply (and a Reject event)
  /// instead of buffered without bound.
  size_t QueueCapacity = 64;
  /// Per-connection in-flight request window: the IO loop stops parsing
  /// further frames from a connection while this many of its requests are
  /// dispatched-but-unflushed, so one pipelining client cannot occupy
  /// every shard queue slot.  0 = unbounded.
  unsigned InFlightWindow = 32;
  /// Persistent disk-cache directory (service/DiskCache.h); empty
  /// disables it.  Shared by all shards underneath their in-memory LRUs.
  std::string DiskCacheDir;
  /// Byte cap for the disk cache; 0 = unbounded.
  uint64_t DiskCacheCapBytes = 0;
  /// Concurrent-connection cap; excess connections get an error response
  /// and are closed.
  unsigned MaxConnections = 256;
  /// Response-write progress bound: a connection with queued response
  /// bytes whose peer accepts none of them for this long is dropped.
  /// Without a bound a client that stops reading would pin its buffered
  /// responses forever -- and wedge the graceful drain.
  int WriteTimeoutMs = 10000;
  /// Slow-request log threshold in milliseconds; negative (the default)
  /// disables the log.  At >= 0, any request whose dispatch-to-flush
  /// time reaches the bound emits its full span tree (including
  /// response_flush, which the echoed trace cannot carry) as one JSON
  /// line on SlowLog.  0 therefore logs every request -- the knob CI
  /// uses to force a slow-request record deterministically.
  double SlowMs = -1;
  /// Slow-request log destination; nullptr means stderr.  The stream
  /// is written only by the IO thread.
  std::FILE *SlowLog = nullptr;
  /// Salt for server-generated trace ids; 0 (the default) salts from
  /// the clock at start().  Tests pin it for reproducible ids.
  uint64_t TraceIdSalt = 0;
  /// Total bound across all shard base registries (retained warm-start
  /// bases for submit_ir delta mode), in entries; each shard gets
  /// BaseRegistryCapacity / Shards (at least 1).  A retained base holds
  /// its SSA function, liveness, and round-0 problem/assignment, so the
  /// default is deliberately far below CacheCapacity.  0 = unbounded
  /// (tests only).
  size_t BaseRegistryCapacity = 256;
};

/// Shard-queue occupancy: current depth, the highest depth reached, and
/// the slot count.
struct QueueStats {
  uint64_t Depth = 0;
  uint64_t MaxDepth = 0;
  uint64_t Capacity = 0;
};

/// Per-shard slice of a statistics snapshot (the stats `shards` array).
struct ShardStats {
  uint64_t Requests = 0; ///< allocate/submit_ir requests this shard served.
  double BusyMs = 0;     ///< Wall time this shard's worker spent executing.
  /// Lifetime pipeline-task cache and delta (warm-start) counters of this
  /// shard's private driver, as the driver reports them.
  DriverCacheCounters Cache;
  DriverDeltaCounters Delta;
  QueueStats Queue;
};

/// A point-in-time statistics snapshot (the `stats` request serializes
/// exactly this).  Each value is held once, as its owner reports it;
/// totals, rates and percentiles are derived when read.
struct ServerStats {
  uint64_t RequestsAllocate = 0;
  uint64_t RequestsSubmitIr = 0;
  uint64_t RequestsStats = 0;
  uint64_t RequestsPing = 0;
  uint64_t RequestsFailed = 0;   ///< Parse/validation errors answered.
  uint64_t RequestsRejected = 0; ///< Shard-queue-full admission rejects.
  uint64_t ConnectionsAccepted = 0;
  uint64_t ConnectionsRejected = 0;
  uint64_t ConnectionsActive = 0;
  unsigned Threads = 0;
  double UptimeMs = 0;
  /// Lifetime service-time (dequeue to response-built) histogram
  /// (log-linear buckets, obs/Metrics.h).
  HistogramSnapshot ServiceLatency;
  /// Wall time the IO thread spent answering ping/stats inline.
  double InlineBusyMs = 0;
  /// Per-shard breakdown, one entry per shard in shard order.
  std::vector<ShardStats> PerShard;
  /// Persistent disk-cache counters; empty when the disk cache is off.
  std::optional<DiskCacheStats> Disk;

  /// Every answered request: the sum of the six kind counters above.
  uint64_t requestsTotal() const;
  /// Every shard's values summed (Queue.MaxDepth: the highest any single
  /// shard queue reached).
  ShardStats totals() const;
};

/// Serializes \p Stats as a "layra-serve-stats/v4" response payload.  Each
/// schema is a strict superset of its predecessor: v3 added
/// requests.rejected, the per-shard `shards` array, and the `disk_cache`
/// object over v2; v4 adds disk_cache.touch_failures and the `delta`
/// object (warm-start counters).  A non-empty \p TraceId appends the
/// {"trace": {"id": ...}} echo for traced requests.
std::string makeStatsResponse(const ServerStats &Stats,
                              const std::string &TraceId = std::string());

/// Renders \p Stats as a Prometheus-style text exposition (`layra-serve
/// --metrics-dump=FILE`, written on SIGUSR1 and at drain).  Every value is
/// read out of the makeStatsResponse document, so both always agree.
/// Solver phase times are not in it: they belong to each traced request's
/// echoed span tree.
std::string makeMetricsExposition(const ServerStats &Stats);

/// The server.  Typical use:
///
/// \code
///   ServerOptions Opt;
///   Opt.UnixPath = "/tmp/layra.sock";
///   Server S(Opt);
///   std::string Error;
///   if (!S.start(&Error)) { ... }
///   // ... requestStop() from a signal handler's watcher ...
///   S.wait();
/// \endcode
class Server {
public:
  explicit Server(ServerOptions Options);
  /// Joins everything (equivalent to requestStop() + wait()).
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds listeners and starts the accept/dispatch machinery.  False (with
  /// *Error filled) when no listener could be created; the server is then
  /// inert and wait() returns immediately.
  bool start(std::string *Error);

  /// Initiates a graceful drain: stop accepting, unblock idle connections,
  /// finish queued requests.  Thread-safe and idempotent; returns without
  /// waiting (use wait()).
  void requestStop();

  /// Blocks until the server has fully drained after requestStop().
  void wait();

  /// True between a successful start() and the end of wait().
  bool running() const;

  /// The bound TCP port (resolves an ephemeral request); 0 when TCP is
  /// disabled or start() failed.
  uint16_t tcpPort() const;

  /// The Unix socket path ("" when disabled).
  const std::string &unixPath() const;

  /// Point-in-time statistics (same data a `stats` request returns).
  ServerStats stats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> State;
};

} // namespace layra

#endif // LAYRA_SERVICE_SERVER_H
