//===- tests/service/ServerTraceTest.cpp - Request tracing e2e tests ------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Request-scoped observability over the wire: trace id round trips,
/// server-generated ids under a pinned salt, span trees on traced
/// allocate responses, minimal echoes on ping/stats/error responses,
/// the --slow-ms threshold boundary, and the global event ring's
/// request lifecycle records.
///
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "obs/EventLog.h"
#include "obs/RequestTrace.h"
#include "service/Client.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

using namespace layra;

namespace {

constexpr unsigned kServerThreads = 2;

struct TempDir {
  std::string Path;
  TempDir() {
    char Template[] = "/tmp/layra-trace-test-XXXXXX";
    const char *Made = mkdtemp(Template);
    EXPECT_NE(Made, nullptr);
    Path = Made ? Made : "";
  }
  ~TempDir() {
    if (!Path.empty())
      ::rmdir(Path.c_str());
  }
  std::string socketPath(const std::string &Name) const {
    return Path + "/" + Name;
  }
};

ServiceRequest allocateRequest(std::vector<unsigned> Regs) {
  ServiceRequest Req;
  Req.K = ServiceRequest::Kind::Allocate;
  Req.Suites = {"lao-kernels"};
  Req.Regs = std::move(Regs);
  return Req;
}

/// Parses \p Response and returns its "trace" member (nullptr when the
/// response carries none).  \p Doc keeps the parse alive for the caller.
const JsonValue *traceOf(const std::string &Response, JsonParseResult &Doc) {
  Doc = parseJson(Response);
  EXPECT_TRUE(Doc.Ok) << Doc.Error;
  return Doc.Ok ? Doc.Value.find("trace") : nullptr;
}

/// Collects span names, in order.
std::vector<std::string> spanNames(const JsonValue &Trace) {
  std::vector<std::string> Names;
  if (const JsonValue *Spans = Trace.find("spans"))
    for (const JsonValue &Span : Spans->elements())
      if (const JsonValue *Name = Span.find("name"))
        Names.push_back(Name->stringValue());
  return Names;
}

} // namespace

TEST(ServerTraceTest, ClientSuppliedIdRoundTripsWithSpanTree) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("trace.sock");
  Opt.Threads = kServerThreads;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;
  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  ServiceRequest Req = allocateRequest({4});
  Req.Trace = true;
  Req.TraceId = "test-req-007";
  std::string Response;
  ASSERT_TRUE(
      Conn.call(Client::makeAllocateRequest(Req), Response, &Error))
      << Error;
  ASSERT_FALSE(Client::isErrorResponse(Response));

  JsonParseResult Doc;
  const JsonValue *Trace = traceOf(Response, Doc);
  ASSERT_NE(Trace, nullptr);
  ASSERT_NE(Trace->find("id"), nullptr);
  EXPECT_EQ(Trace->find("id")->stringValue(), "test-req-007");

  // The serve-path taxonomy, in timeline order.  response_flush cannot
  // appear in its own echo: the response is serialized before flushing.
  std::vector<std::string> Names = spanNames(*Trace);
  ASSERT_EQ(Names.size(), 4u);
  EXPECT_EQ(Names[0], "accept");
  EXPECT_EQ(Names[1], "queue_wait");
  EXPECT_EQ(Names[2], "dispatch");
  EXPECT_EQ(Names[3], "driver");

  // Spans tile the timeline: each starts where the previous ended,
  // within the independent 3-decimal rounding of start and duration.
  const JsonValue *Spans = Trace->find("spans");
  double Cursor = 0;
  for (const JsonValue &Span : Spans->elements()) {
    EXPECT_NEAR(Span.find("start_ms")->numberValue(), Cursor, 0.0025);
    Cursor = Span.find("start_ms")->numberValue() +
             Span.find("dur_ms")->numberValue();
  }

  // The driver attached per-job solver phases, and they saw real work.
  const JsonValue *JobsV = Trace->find("jobs");
  ASSERT_NE(JobsV, nullptr);
  ASSERT_GT(JobsV->size(), 0u);
  double SelfMs = 0;
  for (const JsonValue &Job : JobsV->elements()) {
    const JsonValue *Phases = Job.find("phases");
    ASSERT_NE(Phases, nullptr);
    for (const JsonValue &Ph : Phases->elements()) {
      EXPECT_GT(Ph.find("count")->numberValue(), 0.0);
      SelfMs += Ph.find("self_ms")->numberValue();
    }
  }
  EXPECT_GT(SelfMs, 0.0);
}

TEST(ServerTraceTest, ServerGeneratedIdsUseThePinnedSalt) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("salt.sock");
  Opt.Threads = kServerThreads;
  Opt.TraceIdSalt = 42; // Pin: ids become a pure function of sequence.
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;
  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  // `"trace": true` asks for tracing without supplying an id.
  std::string Response;
  ASSERT_TRUE(Conn.call("{\"type\":\"ping\",\"trace\":true}", Response,
                        &Error))
      << Error;
  JsonParseResult Doc;
  const JsonValue *Trace = traceOf(Response, Doc);
  ASSERT_NE(Trace, nullptr);
  EXPECT_EQ(Trace->find("id")->stringValue(), obs::makeTraceId(42, 1));

  ASSERT_TRUE(Conn.call("{\"type\":\"ping\",\"trace\":true}", Response,
                        &Error))
      << Error;
  Trace = traceOf(Response, Doc);
  ASSERT_NE(Trace, nullptr);
  EXPECT_EQ(Trace->find("id")->stringValue(), obs::makeTraceId(42, 2));
}

TEST(ServerTraceTest, UntracedResponsesCarryNoTraceMember) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("plain.sock");
  Opt.Threads = kServerThreads;
  // Slow logging armed: the server traces internally, but response
  // bytes must stay clean -- measure, never steer.
  Opt.SlowMs = 0;
  Opt.SlowLog = tmpfile();
  ASSERT_NE(Opt.SlowLog, nullptr);
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;
  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  std::string Response;
  ASSERT_TRUE(Conn.call(
      Client::makeAllocateRequest(allocateRequest({4})), Response, &Error))
      << Error;
  JsonParseResult Doc;
  EXPECT_EQ(traceOf(Response, Doc), nullptr);

  ASSERT_TRUE(Conn.call("{\"type\":\"ping\"}", Response, &Error)) << Error;
  EXPECT_EQ(traceOf(Response, Doc), nullptr);

  S.requestStop();
  S.wait();
  std::fclose(Opt.SlowLog);
}

TEST(ServerTraceTest, PingStatsAndErrorsEchoAMinimalId) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("echo.sock");
  Opt.Threads = kServerThreads;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;
  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  std::string Response;
  JsonParseResult Doc;

  ASSERT_TRUE(Conn.call("{\"type\":\"ping\",\"trace\":\"ping-1\"}",
                        Response, &Error))
      << Error;
  const JsonValue *Trace = traceOf(Response, Doc);
  ASSERT_NE(Trace, nullptr);
  EXPECT_EQ(Trace->find("id")->stringValue(), "ping-1");
  EXPECT_EQ(Trace->size(), 1u); // id only: no span tree on a pong.

  ASSERT_TRUE(Conn.call("{\"type\":\"stats\",\"trace\":\"stat-1\"}",
                        Response, &Error))
      << Error;
  Trace = traceOf(Response, Doc);
  ASSERT_NE(Trace, nullptr);
  EXPECT_EQ(Trace->find("id")->stringValue(), "stat-1");

  // A rejected request still echoes the id, so clients can correlate
  // failures; an untraced rejection stays clean.
  ASSERT_TRUE(Conn.call("{\"type\":\"allocate\",\"suite\":\"no-such\","
                        "\"regs\":4,\"trace\":\"bad-1\"}",
                        Response, &Error))
      << Error;
  EXPECT_TRUE(Client::isErrorResponse(Response));
  Trace = traceOf(Response, Doc);
  ASSERT_NE(Trace, nullptr);
  EXPECT_EQ(Trace->find("id")->stringValue(), "bad-1");

  ASSERT_TRUE(Conn.call("{\"type\":\"allocate\",\"suite\":\"no-such\","
                        "\"regs\":4}",
                        Response, &Error))
      << Error;
  EXPECT_TRUE(Client::isErrorResponse(Response));
  EXPECT_EQ(traceOf(Response, Doc), nullptr);
}

TEST(ServerTraceTest, MalformedTraceFieldsAreParseErrors) {
  TempDir Dir;
  ServerOptions Opt;
  Opt.UnixPath = Dir.socketPath("badtrace.sock");
  Opt.Threads = kServerThreads;
  Server S(Opt);
  std::string Error;
  ASSERT_TRUE(S.start(&Error)) << Error;
  Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
  ASSERT_TRUE(Conn.valid()) << Error;

  std::string Response;
  // Wrong type.
  ASSERT_TRUE(
      Conn.call("{\"type\":\"ping\",\"trace\":123}", Response, &Error))
      << Error;
  EXPECT_TRUE(Client::isErrorResponse(Response));
  // Unsafe id characters.
  ASSERT_TRUE(Conn.call("{\"type\":\"ping\",\"trace\":\"has space\"}",
                        Response, &Error))
      << Error;
  EXPECT_TRUE(Client::isErrorResponse(Response));
  // Over-long id.
  std::string Long(65, 'x');
  ASSERT_TRUE(Conn.call("{\"type\":\"ping\",\"trace\":\"" + Long + "\"}",
                        Response, &Error))
      << Error;
  EXPECT_TRUE(Client::isErrorResponse(Response));
  // The connection survives all three rejections.
  EXPECT_TRUE(Conn.ping(&Error)) << Error;
}

TEST(ServerTraceTest, SlowLogThresholdBoundary) {
  TempDir Dir;

  // Threshold 0: every request is "slow" (>= is inclusive), each line
  // is one JSON object carrying the full span tree -- including
  // response_flush, which only the server-side view can contain.
  {
    ServerOptions Opt;
    Opt.UnixPath = Dir.socketPath("slow0.sock");
    Opt.Threads = kServerThreads;
    Opt.SlowMs = 0;
    Opt.SlowLog = tmpfile();
    ASSERT_NE(Opt.SlowLog, nullptr);
    Server S(Opt);
    std::string Error;
    ASSERT_TRUE(S.start(&Error)) << Error;
    Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
    ASSERT_TRUE(Conn.valid()) << Error;

    std::string Response;
    ASSERT_TRUE(Conn.call(
        Client::makeAllocateRequest(allocateRequest({4})), Response,
        &Error))
        << Error;
    ASSERT_TRUE(Conn.call("{\"type\":\"ping\"}", Response, &Error))
        << Error;
    S.requestStop();
    S.wait();

    std::rewind(Opt.SlowLog);
    char Line[65536];
    unsigned Lines = 0;
    bool SawFlush = false, SawDriver = false;
    while (std::fgets(Line, sizeof(Line), Opt.SlowLog)) {
      ++Lines;
      JsonParseResult Parsed = parseJson(std::string(Line));
      ASSERT_TRUE(Parsed.Ok) << Parsed.Error << " in: " << Line;
      EXPECT_EQ(Parsed.Value.find("event")->stringValue(), "slow_request");
      ASSERT_NE(Parsed.Value.find("kind"), nullptr);
      ASSERT_NE(Parsed.Value.find("total_ms"), nullptr);
      const JsonValue *Trace = Parsed.Value.find("trace");
      ASSERT_NE(Trace, nullptr);
      for (const std::string &Name : spanNames(*Trace)) {
        SawFlush |= Name == "response_flush";
        SawDriver |= Name == "driver";
      }
    }
    EXPECT_EQ(Lines, 2u); // allocate + ping, nothing more.
    EXPECT_TRUE(SawFlush);
    EXPECT_TRUE(SawDriver);
    std::fclose(Opt.SlowLog);
  }

  // An unreachable threshold logs nothing.
  {
    ServerOptions Opt;
    Opt.UnixPath = Dir.socketPath("slowinf.sock");
    Opt.Threads = kServerThreads;
    Opt.SlowMs = 1e9;
    Opt.SlowLog = tmpfile();
    ASSERT_NE(Opt.SlowLog, nullptr);
    Server S(Opt);
    std::string Error;
    ASSERT_TRUE(S.start(&Error)) << Error;
    Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
    ASSERT_TRUE(Conn.valid()) << Error;
    std::string Response;
    ASSERT_TRUE(Conn.call(
        Client::makeAllocateRequest(allocateRequest({4})), Response,
        &Error))
        << Error;
    S.requestStop();
    S.wait();
    std::fflush(Opt.SlowLog);
    EXPECT_EQ(std::ftell(Opt.SlowLog), 0L);
    std::fclose(Opt.SlowLog);
  }
}

TEST(ServerTraceTest, EventRingRecordsTheRequestLifecycle) {
  obs::EventLog &Events = obs::EventLog::global();
  ASSERT_FALSE(Events.enabled()); // No other owner in this process.
  Events.reset();
  Events.setEnabled(true);

  {
    TempDir Dir;
    ServerOptions Opt;
    Opt.UnixPath = Dir.socketPath("events.sock");
    Opt.Threads = kServerThreads;
    Server S(Opt);
    std::string Error;
    ASSERT_TRUE(S.start(&Error)) << Error;
    Client Conn = Client::connectToUnix(Opt.UnixPath, &Error);
    ASSERT_TRUE(Conn.valid()) << Error;

    ServiceRequest Req = allocateRequest({4});
    Req.Trace = true;
    Req.TraceId = "ev-req-1";
    std::string Response;
    ASSERT_TRUE(
        Conn.call(Client::makeAllocateRequest(Req), Response, &Error))
        << Error;
    // A rejection lands in the ring too.
    ASSERT_TRUE(Conn.call("{\"type\":\"allocate\",\"suite\":\"no-such\","
                          "\"regs\":4,\"trace\":\"ev-bad-1\"}",
                          Response, &Error))
        << Error;
    S.requestStop();
    S.wait();
  }

  Events.setEnabled(false);
  std::vector<obs::EventLog::Event> Recorded = Events.snapshot();
  bool Started = false, Ended = false, Rejected = false;
  bool DrainBegan = false, DrainEnded = false;
  for (const obs::EventLog::Event &E : Recorded) {
    if (E.Kind == obs::EventKind::RequestStart &&
        std::string(E.Trace) == "ev-req-1")
      Started = true;
    if (E.Kind == obs::EventKind::RequestEnd &&
        std::string(E.Trace) == "ev-req-1") {
      Ended = true;
      EXPECT_GT(E.Value, 0.0); // total_ms
      EXPECT_STREQ(E.Detail, "allocate");
    }
    if (E.Kind == obs::EventKind::Reject &&
        std::string(E.Trace) == "ev-bad-1")
      Rejected = true;
    DrainBegan |= E.Kind == obs::EventKind::DrainBegin;
    DrainEnded |= E.Kind == obs::EventKind::DrainEnd;
  }
  EXPECT_TRUE(Started);
  EXPECT_TRUE(Ended);
  EXPECT_TRUE(Rejected);
  EXPECT_TRUE(DrainBegan);
  EXPECT_TRUE(DrainEnded);
  Events.reset();
}
