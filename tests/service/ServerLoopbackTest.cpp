//===- tests/service/ServerLoopbackTest.cpp - Server e2e tests ------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the allocation server over loopback transports
/// (Unix-domain and TCP), including the acceptance criterion of the
/// service subsystem: with >= 4 concurrent clients, every response is
/// byte-identical to a direct BatchDriver solve of the same jobs, cache
/// hit counters increase strictly across repeated requests, and server
/// memory stays bounded by the configured cache capacity.
///
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "driver/BatchDriver.h"
#include "driver/ReportIO.h"
#include "ir/Parser.h"
#include "service/Client.h"
#include "support/Socket.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace layra;

namespace {

/// Server-side pool width; reference drivers must match so the reports'
/// "threads" field agrees.
constexpr unsigned kServerThreads = 2;

/// A scratch directory for Unix socket paths (socket paths have a ~108
/// byte limit, so /tmp rather than a deep build tree).
struct TempDir {
  std::string Path;
  TempDir() {
    char Template[] = "/tmp/layra-serve-test-XXXXXX";
    const char *Made = mkdtemp(Template);
    EXPECT_NE(Made, nullptr);
    Path = Made ? Made : "";
  }
  ~TempDir() {
    if (!Path.empty())
      ::rmdir(Path.c_str()); // Sockets inside are unlinked by the server.
  }
  std::string socketPath(const std::string &Name) const {
    return Path + "/" + Name;
  }
};

/// An allocate request over \p Regs of the lao-kernels suite (the
/// smallest real suite: 12 tiny kernels).
ServiceRequest allocateRequest(std::vector<unsigned> Regs,
                               bool Details = false) {
  ServiceRequest Req;
  Req.K = ServiceRequest::Kind::Allocate;
  Req.Suites = {"lao-kernels"};
  Req.Regs = std::move(Regs);
  Req.Details = Details;
  return Req;
}

/// What a direct, fresh BatchDriver run of \p Req serializes: the byte
/// string every server response must equal.
std::string directReport(const ServiceRequest &Req) {
  std::vector<BatchJob> Jobs;
  const TargetDesc *Target = targetByName(Req.TargetName);
  EXPECT_NE(Target, nullptr) << Req.TargetName;
  for (const std::string &Name : Req.Suites)
    for (unsigned Regs : Req.Regs) {
      BatchJob Job;
      Job.SuiteName = Name;
      Job.Target = *Target;
      Job.NumRegisters = Regs;
      Job.ClassRegs = Req.ClassRegs;
      Job.Options = Req.Options;
      Jobs.push_back(Job);
    }
  BatchDriver Driver(kServerThreads);
  DriverReport Report = Driver.run(Jobs);
  return driverReportToJson(Report, Req.Timing, Req.Details).dump(2) + "\n";
}

/// Asserts that a connection the server tore down reads as "gone".
/// docs/PROTOCOL.md ("Framing-error teardown"): after a framing-level
/// violation the server answers once and closes; when bytes beyond the
/// rejected header are still unread at close time -- or the teardown
/// races the client's read under load -- the kernel reports ECONNRESET
/// (FrameStatus::IoError) rather than a clean FIN (FrameStatus::Eof).
/// Both spellings are the documented contract; anything else (a stray
/// extra frame, a half-read header) is a real failure.
void expectConnectionGone(int Fd) {
  std::string Payload;
  FrameStatus After = readFrame(Fd, Payload);
  EXPECT_TRUE(After == FrameStatus::Eof || After == FrameStatus::IoError)
      << frameStatusName(After);
}

uint64_t statsCacheHits(Client &Conn) {
  std::string Payload, Error;
  EXPECT_TRUE(Conn.stats(Payload, &Error)) << Error;
  JsonParseResult Parsed = parseJson(Payload);
  EXPECT_TRUE(Parsed.Ok) << Parsed.Error;
  const JsonValue *Cache = Parsed.Value.find("cache");
  EXPECT_NE(Cache, nullptr);
  return Cache && Cache->find("hits")
             ? static_cast<uint64_t>(Cache->find("hits")->intValue())
             : 0;
}

} // namespace

TEST(ServerLoopbackTest, PingOverUnixAndTcp) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("ping.sock");
  Opt.EnableTcp = true; // Ephemeral port.
  Opt.Threads = kServerThreads;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;
  ASSERT_NE(S.tcpPort(), 0);

  Client Unix = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Unix.valid()) << Error;
  EXPECT_TRUE(Unix.ping(&Error)) << Error;

  Client Tcp = Client::connectToTcp("127.0.0.1", S.tcpPort(), &Error);
  ASSERT_TRUE(Tcp.valid()) << Error;
  EXPECT_TRUE(Tcp.ping(&Error)) << Error;

  // connectToSpec spellings reach the same server.
  Client Spec = Client::connectToSpec(
      "tcp:127.0.0.1:" + std::to_string(S.tcpPort()), &Error);
  ASSERT_TRUE(Spec.valid()) << Error;
  EXPECT_TRUE(Spec.ping(&Error)) << Error;

  S.requestStop();
  S.wait();
  EXPECT_FALSE(S.running());
  // The socket file is gone after a drain.
  struct stat Sb;
  EXPECT_NE(::stat(Opt.UnixPath.c_str(), &Sb), 0);
}

TEST(ServerLoopbackTest, ResponsesMatchDirectDriverRunByteForByte) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("direct.sock");
  Opt.Threads = kServerThreads;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  // With and without per-task details; repeated to cover the warm cache.
  for (bool Details : {false, true}) {
    ServiceRequest Req = allocateRequest({4, 6}, Details);
    std::string Expected = directReport(Req);
    for (int Round = 0; Round < 3; ++Round) {
      std::string Response;
      ASSERT_TRUE(
          Conn.call(Client::makeAllocateRequest(Req), Response, &Error))
          << Error;
      EXPECT_EQ(Response, Expected) << "details=" << Details
                                    << " round=" << Round;
    }
  }
}

TEST(ServerLoopbackTest, MultiClassAllocateCarriesPerClassBudgets) {
  // Register-class acceptance path: an allocate request against a
  // multi-class target with "class_regs" budget overrides runs end-to-end
  // and stays byte-identical to a direct driver run of the same jobs;
  // squeezing the second class's file visibly changes the report.
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("classes.sock");
  Opt.Threads = kServerThreads;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  ServiceRequest Req;
  Req.K = ServiceRequest::Kind::Allocate;
  Req.Suites = {"mixed-classes"};
  Req.TargetName = "armv7-vfp";
  Req.Regs = {4};
  Req.ClassRegs = {{"vfp", 2}};

  std::string Squeezed;
  ASSERT_TRUE(Conn.call(Client::makeAllocateRequest(Req), Squeezed, &Error))
      << Error;
  EXPECT_FALSE(Client::isErrorResponse(Squeezed));
  EXPECT_EQ(Squeezed, directReport(Req));
  // The report carries the resolved per-class budgets.
  EXPECT_NE(Squeezed.find("\"class_regs\""), std::string::npos);
  EXPECT_NE(Squeezed.find("\"vfp\": 2"), std::string::npos);

  // A roomy second file must produce a different (cheaper) report.
  Req.ClassRegs = {{"vfp", 32}};
  std::string Roomy;
  ASSERT_TRUE(Conn.call(Client::makeAllocateRequest(Req), Roomy, &Error))
      << Error;
  EXPECT_FALSE(Client::isErrorResponse(Roomy));
  EXPECT_EQ(Roomy, directReport(Req));
  EXPECT_NE(Roomy, Squeezed);

  // Semantic validation: a class the target does not have is a request
  // error, as is a multi-class suite on a single-class target.
  Req.ClassRegs = {{"mmx", 4}};
  std::string Rejected;
  ASSERT_TRUE(Conn.call(Client::makeAllocateRequest(Req), Rejected, &Error))
      << Error;
  EXPECT_TRUE(Client::isErrorResponse(Rejected));

  Req.ClassRegs.clear();
  Req.TargetName = "st231";
  ASSERT_TRUE(Conn.call(Client::makeAllocateRequest(Req), Rejected, &Error))
      << Error;
  EXPECT_TRUE(Client::isErrorResponse(Rejected));
}

TEST(ServerLoopbackTest, FourConcurrentClientsSeeIdenticalDeterministicBytes) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("concurrent.sock");
  Opt.Threads = kServerThreads;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  // Four clients, each hammering its own register count; every reply must
  // equal the direct-driver bytes for that request, no matter how the four
  // streams interleave in the shared queue/cache.
  constexpr unsigned kClients = 4;
  constexpr unsigned kRounds = 4;
  std::vector<ServiceRequest> Requests;
  std::vector<std::string> Expected;
  for (unsigned C = 0; C < kClients; ++C) {
    Requests.push_back(allocateRequest({3 + C}, /*Details=*/true));
    Expected.push_back(directReport(Requests.back()));
  }

  std::vector<std::string> Failures(kClients);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < kClients; ++C)
    Threads.emplace_back([&, C] {
      std::string ClientError;
      Client Conn = Client::connectToUnix(Opt.UnixPath, &ClientError);
      if (!Conn.valid()) {
        Failures[C] = "connect: " + ClientError;
        return;
      }
      std::string Request = Client::makeAllocateRequest(Requests[C]);
      std::string Response;
      for (unsigned Round = 0; Round < kRounds; ++Round) {
        if (!Conn.call(Request, Response, &ClientError)) {
          Failures[C] = "call: " + ClientError;
          return;
        }
        if (Response != Expected[C]) {
          Failures[C] = "response bytes diverged on round " +
                        std::to_string(Round);
          return;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned C = 0; C < kClients; ++C)
    EXPECT_TRUE(Failures[C].empty()) << "client " << C << ": " << Failures[C];

  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.RequestsAllocate, kClients * kRounds);
  EXPECT_EQ(Stats.RequestsFailed, 0u);
}

TEST(ServerLoopbackTest, CacheHitCountersIncreaseStrictlyAcrossRepeats) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("hits.sock");
  Opt.Threads = kServerThreads;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;
  std::string Request =
      Client::makeAllocateRequest(allocateRequest({4, 5}));
  std::string Response;

  uint64_t Previous = statsCacheHits(Conn);
  for (int Round = 0; Round < 3; ++Round) {
    ASSERT_TRUE(Conn.call(Request, Response, &Error)) << Error;
    uint64_t Hits = statsCacheHits(Conn);
    // Round 0 may or may not hit (duplicate functions within the suite);
    // every later round repeats known instances, so hits must strictly
    // grow.
    if (Round > 0) {
      EXPECT_GT(Hits, Previous) << "round " << Round;
    }
    Previous = Hits;
  }
}

TEST(ServerLoopbackTest, MemoryStaysBoundedByCacheCapacity) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("bounded.sock");
  Opt.Threads = kServerThreads;
  Opt.CacheCapacity = 8; // 12 kernels per request: must evict.
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;
  std::string Response;
  // Distinct register counts = distinct instances; far more than capacity.
  for (unsigned Regs = 2; Regs <= 7; ++Regs) {
    ServiceRequest Req = allocateRequest({Regs});
    ASSERT_TRUE(
        Conn.call(Client::makeAllocateRequest(Req), Response, &Error))
        << Error;
    // Responses stay correct (identical to a fresh unbounded driver) even
    // while the bounded cache is churning.
    EXPECT_EQ(Response, directReport(Req)) << "regs=" << Regs;
  }

  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.totals().Cache.Capacity, 8u);
  EXPECT_LE(Stats.totals().Cache.Entries, 8u);
  EXPECT_GT(Stats.totals().Cache.Evictions, 0u);
}

TEST(ServerLoopbackTest, SubmitIrMatchesDirectDriverAndRejectsBadIr) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("ir.sock");
  Opt.Threads = kServerThreads;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  const char *Ir = "function pressure {\n"
                   "entry:  ; depth=0 freq=1\n"
                   "  %a = op\n"
                   "  %b = op\n"
                   "  %c = op\n"
                   "  %d = op %a, %b\n"
                   "  %e = op %c, %d\n"
                   "  ret %a, %b, %c, %d, %e\n"
                   "}\n";
  ServiceRequest Req;
  Req.K = ServiceRequest::Kind::SubmitIr;
  Req.IrText = Ir;
  Req.Regs = {2, 3};
  Req.Details = true;

  std::string Response;
  ASSERT_TRUE(
      Conn.call(Client::makeSubmitIrRequest(Req), Response, &Error))
      << Error;

  // Reference: a direct driver run over the exact suite shape the server
  // builds for a submission (suite "submitted", program = function name).
  ParsedFunction Parsed = parseFunction(Ir);
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
  Suite Sub;
  Sub.Name = "submitted";
  SuiteProgram Prog;
  Prog.Name = Parsed.F.name();
  Prog.Functions.push_back(std::move(Parsed.F));
  Sub.Programs.push_back(std::move(Prog));
  std::vector<BatchJob> Jobs;
  for (unsigned Regs : Req.Regs) {
    BatchJob Job;
    Job.SuiteName = Sub.Name;
    Job.SuiteData = &Sub;
    Job.NumRegisters = Regs;
    Jobs.push_back(Job);
  }
  BatchDriver Driver(kServerThreads);
  std::string Expected =
      driverReportToJson(Driver.run(Jobs), /*IncludeTiming=*/false,
                         /*IncludeTasks=*/true)
          .dump(2) +
      "\n";
  EXPECT_EQ(Response, Expected);

  // Unparseable IR and non-SSA IR produce error responses, not a dead
  // server.
  Req.IrText = "function broken {";
  ASSERT_TRUE(
      Conn.call(Client::makeSubmitIrRequest(Req), Response, &Error))
      << Error;
  EXPECT_NE(Response.find("layra-serve-error/v1"), std::string::npos);
  EXPECT_NE(Response.find("ir parse error"), std::string::npos);

  Req.IrText = "function notssa {\n"
               "entry:  ; depth=0 freq=1\n"
               "  %a = op\n"
               "  %a = op\n"
               "  ret %a\n"
               "}\n";
  ASSERT_TRUE(
      Conn.call(Client::makeSubmitIrRequest(Req), Response, &Error))
      << Error;
  EXPECT_NE(Response.find("layra-serve-error/v1"), std::string::npos);

  // The connection still serves good requests afterwards.
  EXPECT_TRUE(Conn.ping(&Error)) << Error;
}

TEST(ServerLoopbackTest, SubmitIrDeltaWarmStartMatchesFreshSolveByteForByte) {
  // The JIT resubmission path end to end, across shards: a plain submit
  // registers a base on its home shard, a "base"-carrying resubmission
  // warm-starts from it (counted in delta.hits), and the response bytes
  // equal what a FRESH server answers for the same edited IR submitted
  // from scratch.  (Resubmitting to the same server would trivially pass
  // via the outcome cache; the fresh server is the honest reference.)
  const char *BaseIr = "function jitted {\n"
                       "entry:  ; depth=0 freq=1\n"
                       "  %a = op\n"
                       "  %b = op\n"
                       "  br %b\n"
                       "  ; succs=loop\n"
                       "loop:  ; depth=1 freq=10 preds=entry,loop\n"
                       "  %p = phi %a, %q\n"
                       "  %q = op %p, %b\n"
                       "  br %q\n"
                       "  ; succs=loop,exit\n"
                       "exit:  ; depth=0 freq=1 preds=loop\n"
                       "  ret %p, %q\n"
                       "}\n";
  // Profile drift: the loop got hotter.  Structure is unchanged.
  std::string EditedIr = BaseIr;
  size_t Freq = EditedIr.find("freq=10");
  ASSERT_NE(Freq, std::string::npos);
  EditedIr.replace(Freq, 7, "freq=90");

  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("delta.sock");
  Opt.Threads = kServerThreads;
  Opt.Shards = 4; // Base and delta must co-reside on one shard.
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  ServiceRequest Req;
  Req.K = ServiceRequest::Kind::SubmitIr;
  Req.IrText = BaseIr;
  Req.Regs = {3};
  Req.Details = true;
  std::string Response;
  ASSERT_TRUE(Conn.call(Client::makeSubmitIrRequest(Req), Response, &Error))
      << Error;
  EXPECT_FALSE(Client::isErrorResponse(Response));
  EXPECT_EQ(S.stats().totals().Delta.Bases, 1u);

  Req.IrText = EditedIr;
  Req.Base = formatBaseKey(submitIrBaseKey(BaseIr));
  std::string DeltaResponse;
  ASSERT_TRUE(
      Conn.call(Client::makeSubmitIrRequest(Req), DeltaResponse, &Error))
      << Error;
  EXPECT_FALSE(Client::isErrorResponse(DeltaResponse));
  EXPECT_EQ(S.stats().totals().Delta.Hits, 1u);
  EXPECT_EQ(S.stats().totals().Delta.Fallbacks, 0u);

  // Reference: the same edited IR, submitted plain to a fresh server.
  ServerOptions FreshOpt;
  FreshOpt.UnixPath = Dir.socketPath("delta-fresh.sock");
  FreshOpt.Threads = kServerThreads;
  FreshOpt.Shards = 4;
  Server Fresh(FreshOpt);
  ASSERT_TRUE(Fresh.start(&Error)) << Error;
  Client FreshConn = Client::connectToUnix(FreshOpt.UnixPath, &Error);
  ASSERT_TRUE(FreshConn.valid()) << Error;
  ServiceRequest FreshReq = Req;
  FreshReq.Base.clear();
  FreshReq.BaseKey = 0;
  std::string FreshResponse;
  ASSERT_TRUE(Conn.valid());
  ASSERT_TRUE(FreshConn.call(Client::makeSubmitIrRequest(FreshReq),
                             FreshResponse, &Error))
      << Error;
  EXPECT_EQ(DeltaResponse, FreshResponse);

  // A structural edit under the same base falls back to a full solve --
  // counted, answered, byte-equal to a fresh solve.
  std::string Structural = EditedIr;
  size_t Ret = Structural.find("  ret %p, %q");
  ASSERT_NE(Ret, std::string::npos);
  Structural.insert(Ret, "  %r = op %q\n");
  Structural.replace(Structural.find("ret %p, %q"), 10, "ret %p, %r");
  Req.IrText = Structural;
  ASSERT_TRUE(
      Conn.call(Client::makeSubmitIrRequest(Req), DeltaResponse, &Error))
      << Error;
  EXPECT_FALSE(Client::isErrorResponse(DeltaResponse));
  EXPECT_EQ(S.stats().totals().Delta.Fallbacks, 1u);
  FreshReq.IrText = Structural;
  ASSERT_TRUE(FreshConn.call(Client::makeSubmitIrRequest(FreshReq),
                             FreshResponse, &Error))
      << Error;
  EXPECT_EQ(DeltaResponse, FreshResponse);

  // An unregistered base is a request error, not a silent full solve.
  Req.Base = formatBaseKey(0xdeadbeefdeadbeefULL);
  ASSERT_TRUE(
      Conn.call(Client::makeSubmitIrRequest(Req), Response, &Error))
      << Error;
  EXPECT_TRUE(Client::isErrorResponse(Response));
  EXPECT_NE(Response.find("base not found"), std::string::npos);
  // ...and a malformed base key is rejected at parse time.
  Req.Base = "not-a-key";
  ASSERT_TRUE(
      Conn.call(Client::makeSubmitIrRequest(Req), Response, &Error))
      << Error;
  EXPECT_TRUE(Client::isErrorResponse(Response));

  // The v4 stats surface carries the delta counters.
  std::string Payload;
  ASSERT_TRUE(Conn.stats(Payload, &Error)) << Error;
  EXPECT_NE(Payload.find("layra-serve-stats/v4"), std::string::npos);
  EXPECT_NE(Payload.find("\"delta\""), std::string::npos);
  EXPECT_NE(Payload.find("\"fallbacks\""), std::string::npos);
  EXPECT_NE(Payload.find("\"touch_failures\""), std::string::npos);
}

TEST(ServerLoopbackTest, DeltaFromGraphAllocatorBaseServesIntervalAllocator) {
  // Base keys hash the IR text only, not the allocator.  A base captured by
  // a graph allocator (bfpl: its round-0 problem carries no live
  // intervals) must still serve a linear-scan edit whose recomputed costs
  // are identical -- the path that reuses the base problem as is.  The
  // answer must equal a fresh solve, and the server must stay up.
  const char *BaseIr = "function jitted {\n"
                       "entry:  ; depth=0 freq=1\n"
                       "  %a = op\n"
                       "  %b = op\n"
                       "  %c = copy %a\n"
                       "  br %b\n"
                       "  ; succs=loop\n"
                       "loop:  ; depth=1 freq=10 preds=entry,loop\n"
                       "  %p = phi %c, %q\n"
                       "  %q = op %p, %b\n"
                       "  br %q\n"
                       "  ; succs=loop,exit\n"
                       "exit:  ; depth=0 freq=1 preds=loop\n"
                       "  ret %p, %q, %a\n"
                       "}\n";
  // Opcode kind only: same structure, same spill costs.
  std::string EditedIr = BaseIr;
  size_t Copy = EditedIr.find("copy %a");
  ASSERT_NE(Copy, std::string::npos);
  EditedIr.replace(Copy, 4, "op");

  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("delta-ls.sock");
  Opt.Threads = kServerThreads;
  Opt.Shards = 2;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;
  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  ServiceRequest Req;
  Req.K = ServiceRequest::Kind::SubmitIr;
  Req.IrText = BaseIr;
  Req.Regs = {2};
  Req.Details = true;
  Req.Options.AllocatorName = "bfpl";
  std::string Response;
  ASSERT_TRUE(Conn.call(Client::makeSubmitIrRequest(Req), Response, &Error))
      << Error;
  ASSERT_FALSE(Client::isErrorResponse(Response)) << Response;
  ASSERT_EQ(S.stats().totals().Delta.Bases, 1u);

  Req.IrText = EditedIr;
  Req.Options.AllocatorName = "ls";
  Req.Base = formatBaseKey(submitIrBaseKey(BaseIr));
  std::string DeltaResponse;
  ASSERT_TRUE(
      Conn.call(Client::makeSubmitIrRequest(Req), DeltaResponse, &Error))
      << Error;
  EXPECT_FALSE(Client::isErrorResponse(DeltaResponse)) << DeltaResponse;
  EXPECT_EQ(S.stats().totals().Delta.Hits, 1u);
  EXPECT_EQ(S.stats().totals().Delta.Fallbacks, 0u);
  std::string Payload;
  EXPECT_TRUE(Conn.stats(Payload, &Error)) << Error;

  ServerOptions FreshOpt;
  FreshOpt.UnixPath = Dir.socketPath("delta-ls-fresh.sock");
  FreshOpt.Threads = kServerThreads;
  FreshOpt.Shards = 2;
  Server Fresh(FreshOpt);
  ASSERT_TRUE(Fresh.start(&Error)) << Error;
  Client FreshConn = Client::connectToUnix(FreshOpt.UnixPath, &Error);
  ASSERT_TRUE(FreshConn.valid()) << Error;
  ServiceRequest FreshReq = Req;
  FreshReq.Base.clear();
  FreshReq.BaseKey = 0;
  std::string FreshResponse;
  ASSERT_TRUE(FreshConn.call(Client::makeSubmitIrRequest(FreshReq),
                             FreshResponse, &Error))
      << Error;
  EXPECT_EQ(DeltaResponse, FreshResponse);
}

TEST(ServerLoopbackTest, MalformedTrafficGetsErrorsWithoutKillingServer) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("garbage.sock");
  Opt.Threads = kServerThreads;
  Opt.MaxFrameBytes = 4096;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  // Bad JSON in a well-formed frame: error response, connection survives.
  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;
  std::string Response;
  ASSERT_TRUE(Conn.call("this is not json", Response, &Error)) << Error;
  EXPECT_NE(Response.find("layra-serve-error/v1"), std::string::npos);
  ASSERT_TRUE(Conn.call("{\"type\":\"warp\"}", Response, &Error)) << Error;
  EXPECT_NE(Response.find("unknown request type"), std::string::npos);
  EXPECT_TRUE(Conn.ping(&Error)) << Error;

  // Unknown suite / allocator / target: semantic errors, same contract.
  for (const char *Bad :
       {"{\"type\":\"allocate\",\"suite\":\"no-such\",\"regs\":4}",
        "{\"type\":\"allocate\",\"suite\":\"eembc\",\"regs\":4,"
        "\"options\":{\"allocator\":\"alchemy\"}}",
        "{\"type\":\"allocate\",\"suite\":\"eembc\",\"regs\":4,"
        "\"target\":\"z80\"}"}) {
    ASSERT_TRUE(Conn.call(Bad, Response, &Error)) << Error;
    EXPECT_NE(Response.find("layra-serve-error/v1"), std::string::npos)
        << Bad;
  }

  // Garbage bytes where a frame header belongs: one protocol-error
  // response, then the server closes that connection -- and only that one.
  SocketFd Raw = connectUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Raw.valid()) << Error;
  ASSERT_TRUE(sendAll(Raw.fd(), "GET / HTTP/1.1\r\n\r\n", 18));
  std::string Payload;
  ASSERT_EQ(readFrame(Raw.fd(), Payload), FrameStatus::Ok);
  EXPECT_NE(Payload.find("bad frame magic"), std::string::npos);
  expectConnectionGone(Raw.fd());

  // An oversized length claim: same pattern.
  SocketFd Big = connectUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Big.valid()) << Error;
  std::string Huge = "LYRA";
  Huge += static_cast<char>(0x7F);
  Huge.append(3, '\0');
  ASSERT_TRUE(sendAll(Big.fd(), Huge.data(), Huge.size()));
  ASSERT_EQ(readFrame(Big.fd(), Payload), FrameStatus::Ok);
  EXPECT_NE(Payload.find("oversized frame"), std::string::npos);
  expectConnectionGone(Big.fd());

  // A peer that vanishes mid-frame must not wedge anything.
  SocketFd Trunc = connectUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Trunc.valid()) << Error;
  std::string Partial = encodeFrame("{\"type\":\"ping\"}");
  Partial.resize(Partial.size() - 3);
  ASSERT_TRUE(sendAll(Trunc.fd(), Partial.data(), Partial.size()));
  Trunc.reset();

  // The original connection is still healthy through all of it.
  EXPECT_TRUE(Conn.ping(&Error)) << Error;
  ServerStats Stats = S.stats();
  EXPECT_GT(Stats.RequestsFailed, 0u);
}

TEST(ServerLoopbackTest, BruteAllocatorIsRejectedWithoutKillingServer) {
  // The brute-force oracle aborts the process past 24 vertices, and every
  // eembc function at 4 registers is larger: the request must come back
  // as a typed error, and the server must keep answering.
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("brute.sock");
  Opt.Threads = kServerThreads;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;
  std::string Response;
  ASSERT_TRUE(Conn.call("{\"type\":\"allocate\",\"suite\":\"eembc\","
                        "\"regs\":[4],\"options\":{\"allocator\":\"brute\"}}",
                        Response, &Error))
      << Error;
  EXPECT_NE(Response.find("layra-serve-error/v1"), std::string::npos)
      << Response;
  EXPECT_NE(Response.find("'brute'"), std::string::npos) << Response;
  EXPECT_TRUE(Conn.ping(&Error)) << Error;
  EXPECT_EQ(S.stats().RequestsFailed, 1u);
}

TEST(ServerLoopbackTest, UnixListenerRefusesToClobberFilesOrLiveServers) {
  TempDir Dir;
  std::string Error;

  // A regular file at the socket path must survive a bind attempt.
  std::string FilePath = Dir.socketPath("precious.txt");
  {
    std::FILE *F = std::fopen(FilePath.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs("data", F);
    std::fclose(F);
  }
  EXPECT_FALSE(listenUnix(FilePath, &Error).valid());
  struct stat Sb;
  ASSERT_EQ(::stat(FilePath.c_str(), &Sb), 0);
  EXPECT_TRUE(S_ISREG(Sb.st_mode));
  ::unlink(FilePath.c_str());

  // A live server's socket must not be hijacked by a second listener...
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("live.sock");
  Opt.Threads = kServerThreads;
  Server S(Opt);
  ASSERT_TRUE(S.start(&Error)) << Error;
  EXPECT_FALSE(listenUnix(Opt.UnixPath, &Error).valid());
  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;
  EXPECT_TRUE(Conn.ping(&Error)) << Error;
  S.requestStop();
  S.wait();

  // ...but a stale socket left by a dead server is replaced.
  std::string StalePath = Dir.socketPath("stale.sock");
  { SocketFd Dead = listenUnix(StalePath, &Error); }
  // The listener fd is closed but the file remains; binding again works.
  SocketFd Fresh = listenUnix(StalePath, &Error);
  EXPECT_TRUE(Fresh.valid()) << Error;
  ::unlink(StalePath.c_str());
}

TEST(ServerLoopbackTest, PipelinedRequestsAreAnsweredInOrder) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("pipeline.sock");
  Opt.Threads = kServerThreads;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  // Raw socket: send a slow allocate, a malformed request, and a ping
  // back-to-back before reading anything.  Responses must come back in
  // request order -- the parse error must not overtake the allocate
  // response.
  SocketFd Raw = connectUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Raw.valid()) << Error;
  ServiceRequest Slow = allocateRequest({4});
  ASSERT_TRUE(
      writeFrame(Raw.fd(), Client::makeAllocateRequest(Slow)));
  ASSERT_TRUE(writeFrame(Raw.fd(), "definitely not json"));
  ASSERT_TRUE(writeFrame(Raw.fd(), "{\"type\":\"ping\"}"));

  std::string Payload;
  ASSERT_EQ(readFrame(Raw.fd(), Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, directReport(Slow));
  ASSERT_EQ(readFrame(Raw.fd(), Payload), FrameStatus::Ok);
  EXPECT_NE(Payload.find("layra-serve-error/v1"), std::string::npos);
  ASSERT_EQ(readFrame(Raw.fd(), Payload), FrameStatus::Ok);
  EXPECT_NE(Payload.find("layra-serve-pong/v1"), std::string::npos);
}

TEST(ServerLoopbackTest, TracedResponsesDifferOnlyByTheTraceMember) {
  // Measure-never-steer at the protocol level: asking for a trace adds
  // exactly one trailing "trace" member; every other byte of the report
  // -- and the report of a direct driver run -- is unchanged.
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("traced.sock");
  Opt.Threads = kServerThreads;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;
  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  ServiceRequest Req = allocateRequest({4, 5}, /*Details=*/true);
  std::string Untraced;
  ASSERT_TRUE(
      Conn.call(Client::makeAllocateRequest(Req), Untraced, &Error))
      << Error;
  EXPECT_EQ(Untraced, directReport(Req));

  ServiceRequest TracedReq = Req;
  TracedReq.Trace = true;
  TracedReq.TraceId = "identity-check";
  std::string Traced;
  ASSERT_TRUE(
      Conn.call(Client::makeAllocateRequest(TracedReq), Traced, &Error))
      << Error;
  ASSERT_FALSE(Client::isErrorResponse(Traced));
  EXPECT_NE(Traced, Untraced);

  // Rebuild the traced response without its "trace" member, preserving
  // member order; the bytes must equal the untraced response exactly.
  JsonParseResult Parsed = parseJson(Traced);
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
  ASSERT_NE(Parsed.Value.find("trace"), nullptr);
  JsonValue Stripped = JsonValue::object();
  for (const auto &Member : Parsed.Value.members())
    if (Member.first != "trace")
      Stripped.append(Member.first, Member.second);
  EXPECT_EQ(Stripped.dump(2) + "\n", Untraced);

  // And the trace member is the last one: appended, never interleaved.
  EXPECT_EQ(Parsed.Value.members().back().first, "trace");
}

TEST(ServerLoopbackTest, ShardedResponsesAreByteIdenticalToDirectRun) {
  // Cross-shard byte-equality: with four shards, whichever one a request
  // hashes to, the response equals a direct fresh driver run -- and the
  // stats v3 shards array accounts for every request exactly once.
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("sharded.sock");
  Opt.Threads = kServerThreads;
  Opt.Shards = 4;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;
  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  // Distinct register counts hash to different shards (whichever they
  // are); repeats cover each shard's warm cache.
  for (unsigned Regs = 3; Regs <= 8; ++Regs) {
    ServiceRequest Req = allocateRequest({Regs});
    std::string Expected = directReport(Req);
    for (int Round = 0; Round < 2; ++Round) {
      std::string Response;
      ASSERT_TRUE(
          Conn.call(Client::makeAllocateRequest(Req), Response, &Error))
          << Error;
      EXPECT_EQ(Response, Expected) << "regs=" << Regs << " round=" << Round;
    }
  }

  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.RequestsAllocate, 12u);
  ASSERT_EQ(Stats.PerShard.size(), 4u);
  uint64_t ShardSum = 0;
  for (const ShardStats &Sh : Stats.PerShard)
    ShardSum += Sh.Requests;
  EXPECT_EQ(ShardSum, 12u);
}

TEST(ServerLoopbackTest, ShardRoutingIsDeterministicAndTraceVisible) {
  // routeRequestHash must be a pure function of the request content, so
  // identical requests land on the same shard across connections -- the
  // property that keeps per-shard caches warm.  The echoed trace carries
  // the shard id, making the routing observable.
  ServiceRequest Req = allocateRequest({5});
  ServiceRequest Again = allocateRequest({5});
  EXPECT_EQ(routeRequestHash(Req), routeRequestHash(Again));
  // Trace fields must not steer routing.
  Again.Trace = true;
  Again.TraceId = "route-probe";
  EXPECT_EQ(routeRequestHash(Req), routeRequestHash(Again));
  // Different work routes (almost surely) differently-hashed.
  ServiceRequest Other = allocateRequest({6});
  EXPECT_NE(routeRequestHash(Req), routeRequestHash(Other));

  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("routing.sock");
  Opt.Threads = kServerThreads;
  Opt.Shards = 4;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  // The same traced request from two separate connections reports the
  // same shard id.
  long long SeenShard = -1;
  for (int C = 0; C < 2; ++C) {
    Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
    ASSERT_TRUE(Conn.valid()) << Error;
    ServiceRequest Traced = allocateRequest({5});
    Traced.Trace = true;
    Traced.TraceId = "shard-probe";
    std::string Response;
    ASSERT_TRUE(
        Conn.call(Client::makeAllocateRequest(Traced), Response, &Error))
        << Error;
    ASSERT_FALSE(Client::isErrorResponse(Response));
    JsonParseResult Parsed = parseJson(Response);
    ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
    const JsonValue *Trace = Parsed.Value.find("trace");
    ASSERT_NE(Trace, nullptr);
    const JsonValue *Shard = Trace->find("shard");
    ASSERT_NE(Shard, nullptr);
    long long Id = Shard->intValue(-1);
    EXPECT_GE(Id, 0);
    EXPECT_LT(Id, 4);
    if (SeenShard < 0)
      SeenShard = Id;
    else
      EXPECT_EQ(Id, SeenShard);
  }
}

TEST(ServerLoopbackTest, FullShardQueueRejectsWithCleanError) {
  // Admission control: a request routed to a full shard queue gets an
  // immediate error response ("server overloaded") instead of unbounded
  // buffering.  QueueCapacity = 0 makes every shard queue permanently
  // full -- the deterministic way to exercise the reject path.
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("reject.sock");
  Opt.Threads = kServerThreads;
  Opt.QueueCapacity = 0;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;
  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  // Ping and stats run inline on the IO thread: never rejected.
  EXPECT_TRUE(Conn.ping(&Error)) << Error;

  std::string Response;
  ASSERT_TRUE(Conn.call(Client::makeAllocateRequest(allocateRequest({4})),
                        Response, &Error))
      << Error;
  EXPECT_TRUE(Client::isErrorResponse(Response));
  EXPECT_NE(Response.find("server overloaded"), std::string::npos);

  // The connection survives the rejection, and the stats record it as
  // rejected -- distinct from failed.
  EXPECT_TRUE(Conn.ping(&Error)) << Error;
  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.RequestsRejected, 1u);
  EXPECT_EQ(Stats.RequestsFailed, 0u);
}

TEST(ServerLoopbackTest, InFlightWindowKeepsPipelinedOrderUnderPressure) {
  // A tiny per-connection window forces the IO loop to pause and resume
  // parsing repeatedly; responses must still come back complete and in
  // request order.
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("window.sock");
  Opt.Threads = kServerThreads;
  Opt.InFlightWindow = 2;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  SocketFd Raw = connectUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Raw.valid()) << Error;
  ServiceRequest Req = allocateRequest({4});
  std::string Expected = directReport(Req);
  constexpr int kBurst = 8;
  for (int I = 0; I < kBurst; ++I)
    ASSERT_TRUE(writeFrame(Raw.fd(), Client::makeAllocateRequest(Req)));
  std::string Payload;
  for (int I = 0; I < kBurst; ++I) {
    ASSERT_EQ(readFrame(Raw.fd(), Payload), FrameStatus::Ok) << "i=" << I;
    EXPECT_EQ(Payload, Expected) << "i=" << I;
  }
}

TEST(ServerLoopbackTest, DiskCacheWarmRestartServesIdenticalBytes) {
  // The persistent store end-to-end: a fresh server process over the same
  // cache directory answers from disk -- byte-identically -- and counts
  // the disk hits.
  TempDir Dir;
  std::string CacheDir = Dir.Path + "/cache";
  ServiceRequest Req = allocateRequest({4, 6}, /*Details=*/true);
  std::string Expected = directReport(Req);

  auto serveOnce = [&](const char *Socket, ServerStats &StatsOut) {
    ServerOptions Opt;
    Opt.UnixPath = Dir.socketPath(Socket);
    Opt.Threads = kServerThreads;
    Opt.Shards = 2;
    Opt.DiskCacheDir = CacheDir;
    Server S(Opt);
    std::string Error;
    ASSERT_TRUE(S.start(&Error)) << Error;
    Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
    ASSERT_TRUE(Conn.valid()) << Error;
    std::string Response;
    ASSERT_TRUE(
        Conn.call(Client::makeAllocateRequest(Req), Response, &Error))
        << Error;
    EXPECT_EQ(Response, Expected);
    StatsOut = S.stats();
    S.requestStop();
    S.wait();
  };

  ServerStats Cold;
  serveOnce("cold.sock", Cold);
  EXPECT_TRUE(Cold.Disk.has_value());
  EXPECT_GT(Cold.Disk->Writes, 0u);
  EXPECT_GT(Cold.Disk->Entries, 0u);

  // Second process, same directory: its memory caches start empty, so
  // every task resolves through the disk store.
  ServerStats Warm;
  serveOnce("warm.sock", Warm);
  EXPECT_GT(Warm.Disk->Hits, 0u);
  EXPECT_EQ(Warm.Disk->Writes, 0u); // Nothing new to persist.

  // Scrub the cache tree so TempDir can rmdir.
  std::string Cmd = "rm -rf '" + CacheDir + "'";
  ASSERT_EQ(std::system(Cmd.c_str()), 0);
}

TEST(ServerLoopbackTest, GracefulStopDrainsAndDisconnects) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("drain.sock");
  Opt.Threads = kServerThreads;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;

  // An idle connected client...
  Client Idle = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Idle.valid()) << Error;
  ASSERT_TRUE(Idle.ping(&Error)) << Error;

  // ...sees EOF once the server drains.
  S.requestStop();
  S.wait();
  EXPECT_FALSE(S.running());
  std::string Response;
  EXPECT_FALSE(Idle.call("{\"type\":\"ping\"}", Response, &Error));

  // Stopping twice is fine.
  S.requestStop();
  S.wait();
}
