//===- examples/layra_serve.cpp - Allocation server binary ----------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `layra-serve`: the long-running allocation server (service/Server.h).
/// Clients connect over TCP and/or a Unix-domain socket and speak the
/// framed JSON protocol of docs/PROTOCOL.md; suite construction, the
/// solver thread pool, per-worker workspaces and the bounded result cache
/// all persist across requests.
///
/// Usage:
///   layra-serve [--unix=PATH] [--tcp=PORT] [--host=ADDR] [--threads=N]
///               [--shards=N] [--list-targets]
///               [--cache-cap=N] [--base-capacity=N] [--queue-cap=N]
///               [--in-flight=N]
///               [--disk-cache=DIR] [--disk-cache-cap=BYTES]
///               [--max-conns=N]
///               [--max-frame=BYTES] [--metrics-dump=FILE]
///               [--event-log=FILE] [--slow-ms=N] [--quiet]
///
///   --unix=PATH   listen on a Unix-domain socket at PATH
///   --tcp=PORT    listen on ADDR:PORT (0 = pick an ephemeral port; the
///                 chosen port is printed on startup)
///   --host=ADDR   TCP bind address (default 127.0.0.1; the protocol is
///                 unauthenticated, so keep it on loopback or a trusted
///                 network)
///   --threads     solver pool size per shard; 0 = hardware concurrency
///                 (default)
///   --shards=N    shared-nothing shard workers (default 1).  Requests are
///                 routed by content hash, so the same work always lands
///                 on the same shard's private cache
///   --cache-cap   bound on the result cache, entries, split across the
///                 shards (default 65536).  0 removes the bound entirely --
///                 the caches then grow for the life of the server, so
///                 reserve it for short-lived test instances
///   --base-capacity=N
///                 bound on retained delta bases (submit_ir resubmission
///                 warm-starts, docs/PROTOCOL.md), split across the
///                 shards with LRU eviction (default 256).  Bases hold a
///                 function plus its interference problem, so they are
///                 much heavier than cached outcomes; 0 removes the bound
///   --queue-cap   per-shard request-queue depth; a request routed to a
///                 full shard queue is rejected with an error response
///                 (default 64)
///   --in-flight=N per-connection in-flight request window; the server
///                 stops reading a connection with this many responses
///                 pending (default 32, 0 = unbounded)
///   --disk-cache=DIR
///                 persist every solved outcome content-addressed under
///                 DIR and serve repeats from it, warm-starting the caches
///                 across restarts.  The directory is created if missing
///   --disk-cache-cap=BYTES
///                 byte bound on --disk-cache with least-recently-used
///                 eviction (default 0 = unbounded)
///   --max-conns   concurrent connection cap (default 256)
///   --max-frame   largest accepted frame payload in bytes (default 16 MiB)
///   --metrics-dump=FILE
///                 write a Prometheus-style text exposition of the server
///                 stats (the `stats` document's values) to FILE on every
///                 SIGUSR1 and once more at drain ("-" = stderr).  The file
///                 is replaced atomically (temp file + rename), so a
///                 scraper racing a dump always reads one complete
///                 exposition -- old or new, never torn
///   --event-log=FILE
///                 enable the structured event ring (obs/EventLog.h) and
///                 dump it as JSON-lines to FILE ("-" = stderr): on
///                 SIGQUIT, on SIGUSR1, on a fatal error, and at drain.
///                 This is the flight recorder -- a wedged or crashed
///                 server leaves its last ~1024 events on disk.  Writes
///                 are atomic like --metrics-dump
///   --slow-ms=N   log every request whose dispatch+flush time reaches N
///                 milliseconds as one JSON line (full span tree,
///                 including per-job solver phases) on stderr.  0 logs
///                 every request
///   --quiet       suppress the startup/shutdown summary lines
///
/// SIGINT/SIGTERM drain gracefully: accepted requests finish, their
/// responses are written, then the process exits 0.  SIGUSR1 triggers a
/// metrics dump (when --metrics-dump is set) without disturbing service;
/// SIGQUIT dumps the event ring (when --event-log is set) and keeps
/// serving -- aim it at a wedged server before killing it.
///
/// Example session:
///   $ layra-serve --unix=/tmp/layra.sock &
///   $ layra-loadgen --unix=/tmp/layra.sock --clients=4 --requests=16
///   $ kill %1   # graceful drain
///
//===----------------------------------------------------------------------===//

#include "service/Server.h"
#include "ir/Target.h"
#include "obs/EventLog.h"
#include "support/Compiler.h"
#include "support/ParseUtil.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

using namespace layra;

namespace {

[[noreturn]] void usage(const char *Argv0, const char *Error = nullptr) {
  if (Error)
    std::fprintf(stderr, "error: %s\n", Error);
  std::fprintf(stderr,
               "usage: %s [--unix=PATH] [--tcp=PORT] [--host=ADDR]\n"
               "          [--threads=N] [--shards=N] [--cache-cap=N]\n"
               "          [--base-capacity=N] [--queue-cap=N] [--in-flight=N]\n"
               "          [--disk-cache=DIR] [--disk-cache-cap=BYTES]\n"
               "          [--max-conns=N] [--max-frame=BYTES]\n"
               "          [--metrics-dump=FILE] [--event-log=FILE]\n"
               "          [--slow-ms=N] [--list-targets] [--quiet]\n",
               Argv0);
  std::exit(2);
}

/// Self-pipe carrying SIGINT/SIGTERM/SIGUSR1/SIGQUIT to the main thread:
/// a handler may only touch async-signal-safe calls, so it writes one
/// byte and main() does the actual drain or dump.  The byte value encodes
/// the request: 1 = stop, 2 = dump metrics, 3 = dump the event ring.
int StopPipe[2] = {-1, -1};

void onStopSignal(int) {
  char Byte = 1;
  // A full pipe means a stop is already pending; nothing to do.
  (void)!write(StopPipe[1], &Byte, 1);
}

void onDumpSignal(int) {
  char Byte = 2;
  (void)!write(StopPipe[1], &Byte, 1);
}

void onQuitSignal(int) {
  char Byte = 3;
  (void)!write(StopPipe[1], &Byte, 1);
}

/// Writes one complete exposition to \p Path ("-" = stderr) via the
/// atomic temp-file + rename helper, so a scraper racing SIGUSR1 never
/// reads a torn file.
void dumpMetrics(const std::string &Path, const ServerStats &Stats,
                 bool Quiet) {
  std::string Text = makeMetricsExposition(Stats);
  if (Path == "-") {
    std::fputs(Text.c_str(), stderr);
    return;
  }
  std::string Error;
  if (!obs::writeFileAtomically(Path, Text, &Error)) {
    std::fprintf(stderr, "layra-serve: metrics dump failed: %s\n",
                 Error.c_str());
    return;
  }
  if (!Quiet)
    std::fprintf(stderr, "layra-serve: metrics dump -> %s\n", Path.c_str());
}

/// Flight-recorder dump: the event ring as JSON-lines.  \p Why labels the
/// cause ("sigquit", "drain", ...) -- recorded as a final `dump` event so
/// the dump documents its own trigger.
void dumpEventLog(const std::string &Path, bool Quiet, const char *Why) {
  obs::EventLog &Log = obs::EventLog::global();
  Log.record(obs::EventKind::Dump, 0, nullptr, Why);
  std::string Text = Log.toJsonLines();
  if (Path == "-") {
    std::fputs(Text.c_str(), stderr);
    return;
  }
  std::string Error;
  if (!obs::writeFileAtomically(Path, Text, &Error)) {
    std::fprintf(stderr, "layra-serve: event-log dump failed: %s\n",
                 Error.c_str());
    return;
  }
  if (!Quiet)
    std::fprintf(stderr, "layra-serve: event log (%s) -> %s\n", Why,
                 Path.c_str());
}

/// Where the fatal hook dumps; set once before threads start.
std::string FatalDumpPath;

/// Last-words hook: a layraFatalError anywhere in the process flushes the
/// flight recorder before abort() so the crash leaves its final events
/// behind.  Runs on the failing thread; the ring is lock-free, so this
/// works even when the dispatcher is the thread that died.
void fatalFlightDump(const char *Msg) {
  obs::EventLog::global().record(obs::EventKind::Fatal, 0, nullptr, Msg);
  dumpEventLog(FatalDumpPath, /*Quiet=*/false, "fatal");
}

} // namespace

int main(int Argc, char **Argv) {
  ServerOptions Opt;
  bool Quiet = false;
  std::string MetricsDumpPath;
  std::string EventLogPath;
  unsigned Parsed = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      if (Arg.compare(0, Len, Prefix) != 0)
        return nullptr;
      return Arg.c_str() + Len;
    };
    if (Arg == "--list-targets") {
      // Shared registry (ir/Target.h): identical output across the three
      // CLIs, including each target's register-class table.
      std::fputs(formatTargetList().c_str(), stdout);
      return 0;
    }
    if (const char *V = Value("--unix=")) {
      Opt.UnixPath = V;
      if (Opt.UnixPath.empty())
        usage(Argv[0], "--unix needs a path");
    } else if (const char *V = Value("--tcp=")) {
      if (!parseBoundedUnsigned(V, 65535, Parsed))
        usage(Argv[0], "--tcp must be a port in [0, 65535]");
      Opt.EnableTcp = true;
      Opt.TcpPort = static_cast<uint16_t>(Parsed);
    } else if (const char *V = Value("--host=")) {
      Opt.TcpHost = V;
    } else if (const char *V = Value("--threads=")) {
      if (!parseBoundedUnsigned(V, 1024, Opt.Threads))
        usage(Argv[0], "--threads must be an integer in [0, 1024]");
    } else if (const char *V = Value("--shards=")) {
      if (!parseBoundedUnsigned(V, 256, Opt.Shards) || Opt.Shards == 0)
        usage(Argv[0], "--shards must be an integer in [1, 256]");
    } else if (const char *V = Value("--in-flight=")) {
      if (!parseBoundedUnsigned(V, 1u << 20, Opt.InFlightWindow))
        usage(Argv[0], "--in-flight must be an integer in [0, 2^20]");
    } else if (const char *V = Value("--disk-cache=")) {
      Opt.DiskCacheDir = V;
      if (Opt.DiskCacheDir.empty())
        usage(Argv[0], "--disk-cache needs a directory path");
    } else if (const char *V = Value("--disk-cache-cap=")) {
      char *End = nullptr;
      errno = 0;
      unsigned long long Cap = std::strtoull(V, &End, 10);
      if (!std::isdigit(static_cast<unsigned char>(*V)) || (End && *End) ||
          errno == ERANGE)
        usage(Argv[0], "--disk-cache-cap must be a byte count >= 0");
      Opt.DiskCacheCapBytes = Cap;
    } else if (const char *V = Value("--cache-cap=")) {
      if (!parseBoundedUnsigned(V, 1u << 30, Parsed))
        usage(Argv[0],
              "--cache-cap must be an integer in [0, 2^30] (0 = unbounded; "
              "a long-lived server should keep a bound)");
      Opt.CacheCapacity = Parsed;
      if (Parsed == 0)
        std::fprintf(stderr, "layra-serve: warning: --cache-cap=0 removes "
                             "the cache bound; memory will grow with the "
                             "number of distinct instances served\n");
    } else if (const char *V = Value("--base-capacity=")) {
      if (!parseBoundedUnsigned(V, 1u << 20, Parsed))
        usage(Argv[0],
              "--base-capacity must be an integer in [0, 2^20] (0 = "
              "unbounded; bases are heavier than cached outcomes, keep a "
              "bound on a long-lived server)");
      Opt.BaseRegistryCapacity = Parsed;
    } else if (const char *V = Value("--queue-cap=")) {
      if (!parseBoundedUnsigned(V, 1u << 20, Parsed) || Parsed == 0)
        usage(Argv[0], "--queue-cap must be an integer in [1, 2^20]");
      Opt.QueueCapacity = Parsed;
    } else if (const char *V = Value("--max-conns=")) {
      if (!parseBoundedUnsigned(V, 1u << 20, Parsed) || Parsed == 0)
        usage(Argv[0], "--max-conns must be an integer in [1, 2^20]");
      Opt.MaxConnections = Parsed;
    } else if (const char *V = Value("--max-frame=")) {
      if (!parseBoundedUnsigned(V, 1u << 30, Parsed) || Parsed == 0)
        usage(Argv[0], "--max-frame must be an integer in [1, 2^30]");
      Opt.MaxFrameBytes = Parsed;
    } else if (const char *V = Value("--metrics-dump=")) {
      MetricsDumpPath = V;
      if (MetricsDumpPath.empty())
        usage(Argv[0], "--metrics-dump needs a file path (or '-')");
    } else if (const char *V = Value("--event-log=")) {
      EventLogPath = V;
      if (EventLogPath.empty())
        usage(Argv[0], "--event-log needs a file path (or '-')");
    } else if (const char *V = Value("--slow-ms=")) {
      char *End = nullptr;
      double Ms = std::strtod(V, &End);
      if (!End || *End != '\0' || !(Ms >= 0) || Ms > 1e9)
        usage(Argv[0], "--slow-ms must be a number of milliseconds >= 0");
      Opt.SlowMs = Ms;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
    } else {
      usage(Argv[0], ("unknown argument '" + Arg + "'").c_str());
    }
  }
  if (Opt.UnixPath.empty() && !Opt.EnableTcp)
    usage(Argv[0], "nothing to listen on: pass --unix=PATH and/or --tcp=PORT");
  if (Opt.DiskCacheDir.empty() && Opt.DiskCacheCapBytes != 0)
    usage(Argv[0], "--disk-cache-cap needs --disk-cache=DIR");

  if (pipe(StopPipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGUSR1, onDumpSignal);
  // A client that disconnects mid-response must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);
  if (!EventLogPath.empty()) {
    // The flight recorder is armed: record events, take SIGQUIT dumps,
    // and leave last words on a fatal error.  Without --event-log the
    // default SIGQUIT behavior (core dump) is preserved.
    obs::EventLog::global().setEnabled(true);
    std::signal(SIGQUIT, onQuitSignal);
    FatalDumpPath = EventLogPath;
    layraSetFatalHook(fatalFlightDump);
  }

  Server S(Opt);
  std::string Error;
  if (!S.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (!Quiet) {
    if (Opt.EnableTcp)
      std::printf("layra-serve: listening on %s:%u\n", Opt.TcpHost.c_str(),
                  S.tcpPort());
    if (!Opt.UnixPath.empty())
      std::printf("layra-serve: listening on unix:%s\n",
                  Opt.UnixPath.c_str());
    std::printf("layra-serve: %u shard(s), %u solver threads each, "
                "cache capacity %zu, queue capacity %zu/shard\n",
                Opt.Shards ? Opt.Shards : 1, S.stats().Threads,
                Opt.CacheCapacity, Opt.QueueCapacity);
    if (!Opt.DiskCacheDir.empty()) {
      DiskCacheStats Disk = S.stats().Disk.value_or(DiskCacheStats());
      std::printf("layra-serve: disk cache at %s (%llu entries, %llu bytes"
                  "%s)\n",
                  Opt.DiskCacheDir.c_str(),
                  static_cast<unsigned long long>(Disk.Entries),
                  static_cast<unsigned long long>(Disk.Bytes),
                  Opt.DiskCacheCapBytes ? ", capped" : "");
    }
    std::fflush(stdout);
  }

  // Block until a stop signal arrives (retrying interrupted reads).
  // SIGUSR1/SIGQUIT bytes trigger dumps and keep serving.
  while (true) {
    char Byte = 0;
    ssize_t N = read(StopPipe[0], &Byte, 1);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0 || Byte == 1)
      break;
    if (Byte == 2) {
      if (!MetricsDumpPath.empty())
        dumpMetrics(MetricsDumpPath, S.stats(), Quiet);
      if (!EventLogPath.empty())
        dumpEventLog(EventLogPath, Quiet, "sigusr1");
    }
    if (Byte == 3 && !EventLogPath.empty())
      dumpEventLog(EventLogPath, Quiet, "sigquit");
  }

  S.requestStop();
  S.wait();
  // Final dumps so a drained server leaves its complete telemetry behind
  // even when nothing ever sent SIGUSR1/SIGQUIT.
  if (!MetricsDumpPath.empty())
    dumpMetrics(MetricsDumpPath, S.stats(), Quiet);
  if (!EventLogPath.empty())
    dumpEventLog(EventLogPath, Quiet, "drain");
  if (!Quiet) {
    ServerStats Stats = S.stats();
    DriverCacheCounters Cache = Stats.totals().Cache;
    std::fprintf(stderr,
                 "layra-serve: drained after %.0f ms: %llu requests "
                 "(%llu allocate, %llu submit_ir, %llu failed), "
                 "cache %llu/%llu entries, %llu hits, %llu evictions\n",
                 Stats.UptimeMs,
                 static_cast<unsigned long long>(Stats.requestsTotal()),
                 static_cast<unsigned long long>(Stats.RequestsAllocate),
                 static_cast<unsigned long long>(Stats.RequestsSubmitIr),
                 static_cast<unsigned long long>(Stats.RequestsFailed),
                 static_cast<unsigned long long>(Cache.Entries),
                 static_cast<unsigned long long>(Cache.Capacity),
                 static_cast<unsigned long long>(Cache.Hits),
                 static_cast<unsigned long long>(Cache.Evictions));
  }
  return 0;
}
