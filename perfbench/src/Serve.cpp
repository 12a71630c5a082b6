//===- perfbench/src/Serve.cpp - serve-jit workload ------------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve-jit: an open-loop stream of `submit_ir` requests into the shipped
/// `layra-serve --shards=2 --threads=1`, the traffic of a JIT resubmitting
/// methods.  Requests mix three kinds:
///
///  - new:    a unique seeded function, a full solve;
///  - edit:   a profile edit of a recent `new`, sent with its `base` key so
///            the server takes the delta path; a fixed share are structural
///            edits that must fall back to a full solve;
///  - repeat: a byte-identical resubmission of a recent request, served
///            from the driver's response cache.
///
/// The client is one thread multiplexing four pipelined connections with
/// poll.  Each request has a due time on a fixed-rate schedule and its
/// latency runs from that due time, so a stalled server is charged for the
/// requests queued behind the stall (no coordinated omission).  A request
/// and every later request of its family (its edits and repeats) share a
/// connection, so the server sees a base before its edits.
///
/// Every response is checked byte-for-byte against an in-process
/// BatchDriver::run(..., CacheTransparent=true) of the same single-function
/// job, computed after the server stops, outside every timed part.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Delta.h"
#include "driver/ReportIO.h"
#include "ir/Parser.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "support/Json.h"
#include "support/Socket.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <deque>
#include <fcntl.h>
#include <memory>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace layra;

namespace perfbench {
namespace {

// Fixed rates and limit (also recorded in BENCHMARK.json and README.md).
// On a 4-core 2.1 GHz Xeon VM the p99 of this mix crosses 20 ms near
// 450-650 req/s, and the host's speed drifts by up to a third between
// minutes, so `high` stays near half of that capacity: at four fifths a
// slow minute would push the server past saturation.
constexpr double kLowRps = 120;
constexpr double kHighRps = 240;
/// p99 limit of the goodput ladder: ~4x the unloaded `new` p90.
constexpr double kLatencyLimitMs = 20;
/// Goodput ladder: kHighRps * kLadderStep^k requests/s, |k| <= kLadderMaxSteps.
constexpr double kLadderStep = 1.08;
constexpr int kLadderMaxSteps = 24;
constexpr int kLadderStart = 9;
constexpr int kLadderStride = 3;
/// Untraced runs interleave this many low-rate and high-rate blocks.
constexpr unsigned kBlocks = 5;
constexpr unsigned kConnections = 4;
/// Unmeasured lead-in at the start of each fixed-rate phase.
constexpr double kLeadInSeconds = 0.25;
/// Responses still missing this long after the last due time are timeouts.
constexpr double kDrainLimitMs = 5000;

enum class Kind { New, Edit, Repeat };
const char *kindName(Kind K) {
  return K == Kind::New ? "new" : K == Kind::Edit ? "edit" : "repeat";
}

/// One distinct submission: the IR text and register count, and the
/// response a fresh driver gives it.
struct Unique {
  std::string IrText;
  unsigned Regs = 0;
  std::string Expected;
};

struct Request {
  Kind K = Kind::New;
  size_t UniqueIndex = 0;
  std::string Payload;
  /// Nonempty when this request asks for the server's trace echo.
  std::string TracedPayload;
  unsigned Conn = 0;
  double DueMs = 0;
  /// For edits: the Unique index of the base function and its key.
  size_t BaseUnique = 0;
  std::string Base;
  /// False during a phase's lead-in: checked, but left out of latency
  /// statistics while the server settles at the new rate.
  bool Measured = true;
};

/// Seeded request generator; its history spans every phase of a run so
/// edits and repeats can refer back across phase boundaries.
class RequestStream {
public:
  explicit RequestStream(uint64_t Seed) : R(Seed * 0x9e3779b97f4a7c15ULL + 5) {}

  /// Requests due at a fixed \p Rps over \p LeadIn + \p Seconds; those of
  /// the lead-in are not measured.  Every \p TraceEvery-th request (0 =
  /// none) asks for a trace echo.
  std::vector<Request> phase(double Rps, double LeadIn, double Seconds,
                             unsigned TraceEvery);
  /// Forgets every earlier request, so later edits and repeats refer only
  /// to requests sent after this call (used after an overloaded probe,
  /// whose refused `new` requests never became bases).
  void forget() {
    RecentNew.clear();
    RecentSent.clear();
  }

  std::vector<Unique> Uniques;
  std::vector<Function> Functions; ///< Parallel to Uniques (SSA form).

private:
  struct Family {
    size_t BaseUnique;
    unsigned Conn;
  };
  Request makeNew();
  Request makeEdit();
  Request makeRepeat();
  size_t addUnique(Function F, unsigned Regs);
  static std::string payload(const Unique &U, const std::string &Base,
                             const std::string &TraceId);

  Rng R;
  std::vector<Family> RecentNew;     ///< Last 32 `new` requests.
  std::vector<Request> RecentSent;   ///< Last 64 `new`/`edit` requests.
  uint64_t NextFamily = 0;
  uint64_t NextTraceId = 0;
};

std::string RequestStream::payload(const Unique &U, const std::string &Base,
                                   const std::string &TraceId) {
  ServiceRequest Req;
  Req.K = ServiceRequest::Kind::SubmitIr;
  Req.IrText = U.IrText;
  Req.Regs = {U.Regs};
  Req.Base = Base;
  Req.Trace = !TraceId.empty();
  Req.TraceId = TraceId;
  return Client::makeSubmitIrRequest(Req);
}

size_t RequestStream::addUnique(Function F, unsigned Regs) {
  Unique U;
  U.IrText = F.toString();
  U.Regs = Regs;
  Uniques.push_back(std::move(U));
  Functions.push_back(std::move(F));
  return Uniques.size() - 1;
}

Request RequestStream::makeNew() {
  uint64_t Family = NextFamily++;
  Function F = makeJitFunction(R, "m" + std::to_string(Family));
  Request Req;
  Req.K = Kind::New;
  Req.UniqueIndex = addUnique(std::move(F), 4 + unsigned(R.nextBelow(13)));
  Req.Conn = unsigned(Family % kConnections);
  Req.Payload = payload(Uniques[Req.UniqueIndex], "", "");
  RecentNew.push_back({Req.UniqueIndex, Req.Conn});
  if (RecentNew.size() > 32)
    RecentNew.erase(RecentNew.begin());
  return Req;
}

Request RequestStream::makeEdit() {
  const Family &Base = RecentNew[R.nextBelow(RecentNew.size())];
  const Function &BaseF = Functions[Base.BaseUnique];
  Request Req;
  Req.K = Kind::Edit;
  Req.BaseUnique = Base.BaseUnique;
  Req.Conn = Base.Conn;
  Function Edited = BaseF;
  // One edit in ten is structural and must fall back to a full solve.
  if (!(R.nextBool(0.1) && structuralEdit(BaseF, Edited)))
    Edited = frequencyEdit(BaseF, R);
  Req.UniqueIndex = addUnique(std::move(Edited), Uniques[Base.BaseUnique].Regs);
  Req.Base = formatBaseKey(submitIrBaseKey(Uniques[Base.BaseUnique].IrText));
  Req.Payload = payload(Uniques[Req.UniqueIndex], Req.Base, "");
  return Req;
}

Request RequestStream::makeRepeat() {
  Request Req = RecentSent[R.nextBelow(RecentSent.size())];
  Req.K = Kind::Repeat;
  return Req;
}

std::vector<Request> RequestStream::phase(double Rps, double LeadIn,
                                          double Seconds,
                                          unsigned TraceEvery) {
  std::vector<Request> Out;
  const size_t Unmeasured = size_t(Rps * LeadIn);
  size_t Count = Unmeasured + std::max<size_t>(1, size_t(Rps * Seconds));
  for (size_t I = 0; I < Count; ++I) {
    double Draw = R.nextDouble();
    Request Req = Draw < 0.5 || RecentNew.empty() ? makeNew()
                  : Draw < 0.83 || RecentSent.empty() ? makeEdit()
                                                      : makeRepeat();
    if (Req.K != Kind::Repeat) {
      RecentSent.push_back(Req);
      if (RecentSent.size() > 64)
        RecentSent.erase(RecentSent.begin());
    }
    Req.DueMs = double(I) * 1000.0 / Rps;
    Req.Measured = I >= Unmeasured;
    Req.TracedPayload.clear();
    if (TraceEvery && I % TraceEvery == 0)
      Req.TracedPayload = payload(Uniques[Req.UniqueIndex], Req.Base,
                                  "pb-" + std::to_string(NextTraceId++));
    Out.push_back(std::move(Req));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Server process
//===----------------------------------------------------------------------===//

/// One `layra-serve` child process on a Unix socket.  The destructor stops
/// it and waits for it to exit.
class ServerProcess {
public:
  ServerProcess(const RunOptions &Opt, std::string SocketPath)
      : Socket(std::move(SocketPath)) {
    ::unlink(Socket.c_str());
    std::string Bin = Opt.BinDir + "/layra-serve";
    std::string Unix = "--unix=" + Socket;
    std::string LogPath = Opt.WorkDir + "/serve.log";
    Pid = ::fork();
    if (Pid == 0) {
      // Die with the benchmark, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      int Fd = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Fd >= 0) {
        ::dup2(Fd, 1);
        ::dup2(Fd, 2);
      }
      ::execl(Bin.c_str(), Bin.c_str(), Unix.c_str(), "--shards=2",
              "--threads=1", "--quiet", static_cast<char *>(nullptr));
      ::_exit(127);
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  bool started() const { return Pid > 0; }
  int pid() const { return Pid; }
  const std::string &socket() const { return Socket; }

  /// Polls until the server answers a ping; false after \p TimeoutMs.
  bool waitReady(double TimeoutMs) {
    Clock::time_point Start = Clock::now();
    while (msSince(Start) < TimeoutMs) {
      std::string Error;
      Client C = Client::connectToUnix(Socket, &Error);
      if (C.valid() && C.ping(&Error))
        return true;
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return false;
      }
      ::usleep(2000);
    }
    return false;
  }

  /// SIGTERM, then SIGKILL after 10 s; always reaps the child.
  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    Clock::time_point Start = Clock::now();
    int Status = 0;
    while (::waitpid(Pid, &Status, WNOHANG) == 0) {
      if (msSince(Start) > 10000) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
        break;
      }
      ::usleep(2000);
    }
    Pid = -1;
    ::unlink(Socket.c_str());
  }

private:
  std::string Socket;
  int Pid = -1;
};

//===----------------------------------------------------------------------===//
// Open-loop client
//===----------------------------------------------------------------------===//

/// What the client saw for one request of a phase.
struct Observed {
  double SendMs = -1; ///< When the generator released it (phase clock).
  double DoneMs = -1; ///< When its response frame completed; -1 = none.
  std::string Response;
};

class OpenLoopClient {
public:
  bool connect(const std::string &Socket, std::string &Error) {
    for (unsigned I = 0; I < kConnections; ++I) {
      SocketFd Fd = connectUnix(Socket, &Error);
      if (!Fd.valid())
        return false;
      ::fcntl(Fd.fd(), F_SETFL, ::fcntl(Fd.fd(), F_GETFL) | O_NONBLOCK);
      Conns[I].Fd = std::move(Fd);
    }
    return true;
  }

  /// Releases every request at its due time (relative to a start 5 ms from
  /// now) and collects the responses; requests still unanswered
  /// kDrainLimitMs after the last due time are left without DoneMs.
  std::vector<Observed> run(const std::vector<Request> &Reqs, bool UseTraced,
                            Clock::time_point *Origin = nullptr);

private:
  struct Conn {
    SocketFd Fd;
    std::string Out;
    size_t OutOff = 0;
    std::string In;
    std::deque<size_t> InFlight;
    bool Broken = false;
  };
  Conn Conns[kConnections];
};

std::vector<Observed> OpenLoopClient::run(const std::vector<Request> &Reqs,
                                          bool UseTraced,
                                          Clock::time_point *Origin) {
  std::vector<Observed> Obs(Reqs.size());
  const Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(5);
  if (Origin)
    *Origin = T0;
  auto Now = [&] { return msBetween(T0, Clock::now()); };
  const double LastDue = Reqs.empty() ? 0 : Reqs.back().DueMs;
  size_t Next = 0, Done = 0;
  while (Done < Reqs.size()) {
    double T = Now();
    while (Next < Reqs.size() && Reqs[Next].DueMs <= T) {
      const Request &Req = Reqs[Next];
      Conn &C = Conns[Req.Conn];
      const std::string &Payload = UseTraced && !Req.TracedPayload.empty()
                                       ? Req.TracedPayload
                                       : Req.Payload;
      Obs[Next].SendMs = T;
      if (C.Broken) {
        ++Done; // Never answered; counted as a failure by the caller.
      } else {
        C.Out += encodeFrame(Payload);
        C.InFlight.push_back(Next);
      }
      ++Next;
    }
    pollfd Fds[kConnections];
    for (unsigned I = 0; I < kConnections; ++I) {
      Conn &C = Conns[I];
      // Write eagerly; poll for writability only when the socket is full.
      while (!C.Broken && C.OutOff < C.Out.size()) {
        ssize_t W = ::write(C.Fd.fd(), C.Out.data() + C.OutOff,
                            C.Out.size() - C.OutOff);
        if (W > 0) {
          C.OutOff += size_t(W);
        } else if (W < 0 && errno == EINTR) {
          continue;
        } else {
          if (W < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            // Everything queued on a dead connection is lost.
            C.Broken = true;
            Done += C.InFlight.size();
            C.InFlight.clear();
          }
          break;
        }
      }
      if (C.OutOff == C.Out.size()) {
        C.Out.clear();
        C.OutOff = 0;
      }
      Fds[I].fd = C.Broken ? -1 : C.Fd.fd();
      Fds[I].events = short(POLLIN | (C.Out.empty() ? 0 : POLLOUT));
      Fds[I].revents = 0;
    }
    double WaitMs = Next < Reqs.size() ? Reqs[Next].DueMs - Now() : 50;
    if (Next == Reqs.size() && Now() > LastDue + kDrainLimitMs) {
      // Late answers would be taken for a later phase's: retire every
      // connection still waiting.
      for (Conn &C : Conns)
        if (!C.InFlight.empty()) {
          C.Broken = true;
          C.InFlight.clear();
        }
      break;
    }
    timespec Timeout;
    WaitMs = std::max(0.0, WaitMs);
    Timeout.tv_sec = time_t(WaitMs / 1000);
    Timeout.tv_nsec = long(std::fmod(WaitMs, 1000.0) * 1e6);
    int Ready = ::ppoll(Fds, kConnections, &Timeout, nullptr);
    if (Ready <= 0)
      continue;
    for (unsigned I = 0; I < kConnections; ++I) {
      Conn &C = Conns[I];
      if (C.Broken || !(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      char Buf[65536];
      for (;;) {
        ssize_t Got = ::read(C.Fd.fd(), Buf, sizeof(Buf));
        if (Got > 0) {
          C.In.append(Buf, size_t(Got));
          continue;
        }
        if (Got < 0 && errno == EINTR)
          continue;
        if (Got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
          C.Broken = true;
        break;
      }
      double DoneAt = Now();
      size_t Off = 0;
      while (C.In.size() - Off >= kFrameHeaderBytes) {
        size_t Len = 0;
        if (decodeFrameHeader(
                reinterpret_cast<const unsigned char *>(C.In.data() + Off),
                kDefaultMaxFrameBytes, Len) != FrameStatus::Ok) {
          C.Broken = true;
          break;
        }
        if (C.In.size() - Off - kFrameHeaderBytes < Len)
          break;
        if (C.InFlight.empty()) {
          C.Broken = true; // An answer nobody asked for.
          break;
        }
        size_t Index = C.InFlight.front();
        C.InFlight.pop_front();
        Obs[Index].DoneMs = DoneAt;
        Obs[Index].Response.assign(C.In, Off + kFrameHeaderBytes, Len);
        Off += kFrameHeaderBytes + Len;
        ++Done;
      }
      C.In.erase(0, Off);
      if (C.Broken) {
        // Whatever is still in flight on a broken connection is lost.
        Done += C.InFlight.size();
        C.InFlight.clear();
      }
    }
  }
  return Obs;
}

//===----------------------------------------------------------------------===//
// Expected responses
//===----------------------------------------------------------------------===//

/// The response a fresh server gives \p U (docs/PROTOCOL.md: a
/// single-function suite named "submitted" whose program is named after the
/// function, one job per register count, a timing-free report).
std::string expectedResponse(const Unique &U, BatchDriver &Driver) {
  ParsedFunction Parsed = parseFunction(U.IrText);
  if (!Parsed.Ok)
    return "<unparsable ir: " + Parsed.Error + ">";
  Suite S;
  S.Name = "submitted";
  SuiteProgram Prog;
  Prog.Name = Parsed.F.name();
  Prog.Functions.push_back(std::move(Parsed.F));
  S.Programs.push_back(std::move(Prog));
  BatchJob Job;
  Job.SuiteName = S.Name;
  Job.SuiteData = &S;
  Job.Target = ST231;
  Job.NumRegisters = U.Regs;
  DriverReport Report = Driver.run({Job}, /*CacheTransparent=*/true);
  return driverReportToJson(Report, /*IncludeTiming=*/false,
                            /*IncludeTasks=*/false)
             .dump(2) +
         "\n";
}

/// Fills Unique::Expected for every entry, on four threads.
void computeExpected(std::vector<Unique> &Uniques) {
  std::atomic<size_t> NextIndex{0};
  auto Work = [&] {
    BatchDriver Driver(1);
    for (size_t I = NextIndex++; I < Uniques.size(); I = NextIndex++)
      Uniques[I].Expected = expectedResponse(Uniques[I], Driver);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < 4; ++T)
    Pool.emplace_back(Work);
  for (std::thread &T : Pool)
    T.join();
}

/// Strips the trailing `"trace"` member a traced response carries (the
/// protocol appends it last), leaving the untraced bytes.
bool untracedBytes(const std::string &Traced, std::string &Out) {
  size_t At = Traced.rfind(",\n  \"trace\": {");
  if (At == std::string::npos)
    return false;
  Out = Traced.substr(0, At) + "\n}\n";
  return true;
}

/// Judges one phase's responses.  Returns per-request verdicts: 0 ok,
/// 1 refused for overload, 2 failed (error, mismatch, missing).
std::vector<int> judge(const std::vector<Request> &Reqs,
                       const std::vector<Observed> &Obs,
                       const std::vector<Unique> &Uniques,
                       std::string &FirstProblem) {
  std::vector<int> Verdict(Reqs.size(), 0);
  for (size_t I = 0; I < Reqs.size(); ++I) {
    const Observed &O = Obs[I];
    const std::string &Want = Uniques[Reqs[I].UniqueIndex].Expected;
    std::string Problem;
    if (O.DoneMs < 0) {
      Problem = "no response (timed out or connection lost)";
    } else if (Client::isErrorResponse(O.Response)) {
      // Overload refusals, and edits whose base request was refused.
      if (O.Response.find("overloaded") != std::string::npos ||
          O.Response.find("base not found") != std::string::npos) {
        Verdict[I] = 1;
        continue;
      }
      Problem = "error response: " + O.Response.substr(0, 200);
    } else {
      std::string Plain;
      const std::string *Got = &O.Response;
      if (O.Response.find("\"trace\"") != std::string::npos &&
          untracedBytes(O.Response, Plain))
        Got = &Plain;
      if (*Got != Want)
        Problem = "response differs from a fresh in-process solve";
    }
    if (!Problem.empty()) {
      Verdict[I] = 2;
      if (FirstProblem.empty())
        FirstProblem = std::string(kindName(Reqs[I].K)) + " request: " +
                       Problem;
    }
  }
  return Verdict;
}

/// Latency from due time of every answered, accepted request.
std::vector<double> latencies(const std::vector<Request> &Reqs,
                              const std::vector<Observed> &Obs,
                              const std::vector<int> &Verdict, int KindFilter) {
  std::vector<double> Out;
  for (size_t I = 0; I < Reqs.size(); ++I)
    if (Reqs[I].Measured && Verdict[I] == 0 &&
        (KindFilter < 0 || int(Reqs[I].K) == KindFilter))
      Out.push_back(Obs[I].DoneMs - Reqs[I].DueMs);
  return Out;
}

std::vector<double> lateness(const std::vector<Request> &Reqs,
                             const std::vector<Observed> &Obs) {
  std::vector<double> Out;
  for (size_t I = 0; I < Reqs.size(); ++I)
    if (Reqs[I].Measured && Obs[I].SendMs >= 0)
      Out.push_back(Obs[I].SendMs - Reqs[I].DueMs);
  return Out;
}

/// Reads the counter \p Group.\p Key out of a `stats` response.
double statsValue(const std::string &Stats, const char *Group,
                  const char *Key) {
  JsonParseResult Doc = parseJson(Stats);
  if (!Doc.Ok)
    return 0;
  const JsonValue *G = Doc.Value.find(Group);
  const JsonValue *V = G ? G->find(Key) : nullptr;
  return V ? V->numberValue() : 0;
}

/// Σ `busy_ms` over the `shards` array of a `stats` response: the time the
/// shard workers spent executing requests, without inline pings and stats.
double shardBusyMs(const std::string &Stats) {
  JsonParseResult Doc = parseJson(Stats);
  const JsonValue *Shards = Doc.Ok ? Doc.Value.find("shards") : nullptr;
  double Sum = 0;
  if (Shards)
    for (const JsonValue &Sh : Shards->elements())
      if (const JsonValue *V = Sh.find("busy_ms"))
        Sum += V->numberValue();
  return Sum;
}

/// One phase of the run: its requests, what was observed and the verdicts.
struct Phase {
  std::vector<Request> Reqs;
  std::vector<Observed> Obs;
  std::vector<int> Verdict;
  /// The client's time origin for this phase (Observed times count from it).
  Clock::time_point Start;
};

/// One goodput-ladder probe.
struct Probe {
  int Rung = 0;
  double Rps = 0;
  double P99 = 0;
  bool Pass = false;
  Phase Data;
};

double ladderRate(int Rung) {
  return kHighRps * std::pow(kLadderStep, double(Rung));
}

/// Latency p99 of a probe, or infinity when anything went unanswered or
/// was refused; a probe passes when that meets the limit.
void gradeProbe(Probe &P) {
  std::vector<double> Lat;
  bool Refused = false;
  for (size_t I = 0; I < P.Data.Reqs.size(); ++I) {
    const Observed &O = P.Data.Obs[I];
    if (O.DoneMs < 0 || Client::isErrorResponse(O.Response))
      Refused = true;
    else if (P.Data.Reqs[I].Measured)
      Lat.push_back(O.DoneMs - P.Data.Reqs[I].DueMs);
  }
  P.P99 = Refused ? HUGE_VAL : quantile(Lat, 0.99);
  P.Pass = P.P99 <= kLatencyLimitMs;
}

/// One numeric field of the single job of an allocation report.
double jobField(const JsonValue &Doc, const char *Key) {
  const JsonValue *Jobs = Doc.find("jobs");
  if (!Jobs || Jobs->size() != 1)
    return 0;
  const JsonValue *V = Jobs->at(0).find(Key);
  return V ? V->numberValue() : 0;
}

/// Per-block statistic combined over blocks: the mean after dropping the
/// highest and the lowest block (a plain mean below three blocks).  The
/// trim keeps one block caught in a host stall from moving the result;
/// averaging the rest keeps the sampling noise of short blocks down.
template <typename StatFn>
double overBlocks(const std::vector<Phase> &Blocks, StatFn Stat) {
  std::vector<double> Values;
  for (const Phase &B : Blocks)
    Values.push_back(Stat(B));
  std::sort(Values.begin(), Values.end());
  if (Values.size() >= 3)
    Values = std::vector<double>(Values.begin() + 1, Values.end() - 1);
  return mean(Values);
}

/// Goodput of a ladder search: the rate where p99 crosses the limit,
/// interpolated between the highest passing probe and the lowest failing
/// one above it.
double goodputOf(const std::vector<Probe> &Probes) {
  const Probe *Pass = nullptr, *Fail = nullptr;
  for (const Probe &P : Probes)
    if (P.Pass && (!Pass || P.Rung > Pass->Rung))
      Pass = &P;
  for (const Probe &P : Probes)
    if (!P.Pass && (!Pass || P.Rung > Pass->Rung) &&
        (!Fail || P.Rung < Fail->Rung))
      Fail = &P;
  for (const Probe &P : Probes)
    std::printf("ladder probe %.0f req/s: p99 %.2f ms -> %s\n", P.Rps, P.P99,
                P.Pass ? "pass" : "fail");
  if (Pass && Fail && std::isfinite(Fail->P99))
    return Pass->Rps + (Fail->Rps - Pass->Rps) *
                           std::clamp((kLatencyLimitMs - Pass->P99) /
                                          (Fail->P99 - Pass->P99),
                                      0.0, 1.0);
  return Pass ? Pass->Rps : 0;
}

/// End-to-end metrics of an untraced run.  \p BusyMs is the shard
/// workers' busy time over the fixed-rate blocks.
void reportUntraced(const std::vector<Phase> &Low,
                    const std::vector<Phase> &High, double BusyMs,
                    RunResult &Res) {
  auto p50 = [](int Kind) {
    return [Kind](const Phase &P) {
      return median(latencies(P.Reqs, P.Obs, P.Verdict, Kind));
    };
  };
  Res.set("p50_ms.low", overBlocks(Low, p50(-1)));
  Res.set("new_p50_ms", overBlocks(Low, p50(int(Kind::New))));
  Res.set("edit_p50_ms", overBlocks(Low, p50(int(Kind::Edit))));
  Res.set("repeat_p50_ms", overBlocks(Low, p50(int(Kind::Repeat))));

  // Throughput and quality over the fixed-rate blocks.  The offered rate
  // is fixed, so throughput is taken per second of shard busy time: the
  // capacity the server would have if its workers never idled.
  double Completed = 0, Cost = 0, Ops = 0;
  for (const std::vector<Phase> *Set : {&Low, &High})
    for (const Phase &P : *Set) {
      for (size_t I = 0; I < P.Reqs.size(); ++I) {
        if (P.Verdict[I] != 0)
          continue;
        ++Completed;
        JsonParseResult Doc = parseJson(P.Obs[I].Response);
        if (!Doc.Ok)
          continue;
        Cost += jobField(Doc.Value, "total_spill_cost");
        Ops += jobField(Doc.Value, "loads") + jobField(Doc.Value, "stores") -
               jobField(Doc.Value, "loads_folded");
      }
    }
  Res.set("fns_per_s", Completed / (BusyMs / 1000.0));
  Res.set("spill_cost", Cost);
  Res.set("spill_ops", Ops);

  std::printf("serve-jit: %zu blocks per rate, p50 low %.3f ms, p50 high "
              "%.3f ms\n",
              Low.size(), Res.Metrics["p50_ms.low"], overBlocks(High, p50(-1)));
}

/// Per-layer metrics of a traced run: server spans from the trace echo of
/// sampled requests, counters from `stats`, and in-process timings of the
/// request-path calls on the exact payloads.
void reportTraced(const RunOptions &Opt, const RequestStream &Stream,
                  const Phase &Low, const Phase &LowTraced, const Phase &High,
                  const std::vector<Probe> &Probes,
                  const std::string &StatsBefore,
                  const std::string &StatsAfter, SpanLog &Log,
                  RunResult &Res) {
  static const char *const SpanNames[] = {"accept", "queue_wait", "dispatch",
                                          "driver"};
  std::vector<double> SpanMs[4], FlushNet, Unattributed;
  std::vector<double> KindSpan[3][5];
  std::vector<double> TracedLat, QueueHigh;
  auto readTrace = [&](const Phase &P, bool Primary) {
    for (size_t I = 0; I < P.Reqs.size(); ++I) {
      const Request &Req = P.Reqs[I];
      const Observed &O = P.Obs[I];
      if (!Req.Measured || Req.TracedPayload.empty() || P.Verdict[I] != 0)
        continue;
      JsonParseResult Doc = parseJson(O.Response);
      const JsonValue *Trace = Doc.Ok ? Doc.Value.find("trace") : nullptr;
      const JsonValue *Spans = Trace ? Trace->find("spans") : nullptr;
      if (!Spans)
        continue;
      double Ms[4] = {0, 0, 0, 0};
      for (const JsonValue &Sp : Spans->elements())
        for (unsigned K = 0; K < 4; ++K)
          if (Sp.find("name") && Sp.find("name")->stringValue() == SpanNames[K])
            Ms[K] = Sp.find("dur_ms")->numberValue();
      if (!Primary) {
        QueueHigh.push_back(Ms[1]);
        continue;
      }
      double Phases = 0;
      if (const JsonValue *Jobs = Trace->find("jobs"))
        for (const JsonValue &J : Jobs->elements())
          if (const JsonValue *Ph = J.find("phases"))
            for (const JsonValue &E : Ph->elements())
              Phases += E.find("self_ms") ? E.find("self_ms")->numberValue()
                                          : 0;
      double Flush = (O.DoneMs - O.SendMs) - (Ms[0] + Ms[1] + Ms[2] + Ms[3]);
      // Client-observed request span and its server-side children, laid
      // end to end from the send (the echo gives durations, not clocks).
      double Send = Log.msAt(P.Start) + O.SendMs;
      double Done = Log.msAt(P.Start) + O.DoneMs;
      Log.add("request", Send, Done, -1, I);
      int Root = int(Log.spans().size()) - 1;
      double At = Send;
      for (unsigned K = 0; K < 4; ++K) {
        Log.add(SpanNames[K], At, At + Ms[K], Root, I);
        At += Ms[K];
      }
      Log.add("flush_net", At, Done, Root, I);
      for (unsigned K = 0; K < 4; ++K) {
        SpanMs[K].push_back(Ms[K]);
        KindSpan[int(Req.K)][K].push_back(Ms[K]);
      }
      FlushNet.push_back(Flush);
      KindSpan[int(Req.K)][4].push_back(Flush);
      Unattributed.push_back(Ms[3] - Phases);
      TracedLat.push_back(O.DoneMs - Req.DueMs);
    }
  };
  readTrace(LowTraced, true);
  readTrace(High, false);

  for (unsigned K = 0; K < 4; ++K)
    Res.set(std::string("service.") + SpanNames[K] + "_ms", mean(SpanMs[K]));
  Res.set("service.flush_net_ms", mean(FlushNet));
  Res.set("service.queue_wait_ms.high", mean(QueueHigh));
  static const char *const KindSpanNames[] = {"accept", "queue_wait",
                                              "dispatch", "driver",
                                              "flush_net"};
  for (unsigned Kd = 0; Kd < 3; ++Kd)
    for (unsigned K = 0; K < 5; ++K)
      Res.set(std::string("service.") + kindName(Kind(Kd)) + "." +
                  KindSpanNames[K] + "_ms",
              median(KindSpan[Kd][K]));
  // Time inside the server's driver call that no solver phase covers
  // (hashing, cache lookup, report assembly).
  Res.set("unattributed_ms", mean(Unattributed));
  double UntracedP50 = median(latencies(Low.Reqs, Low.Obs, Low.Verdict, -1));
  Res.set("trace_overhead_pct",
          100.0 * (median(TracedLat) - UntracedP50) / UntracedP50);
  Res.set("gen_late_ms.low", quantile(lateness(Low.Reqs, Low.Obs), 0.99));
  // Latency at the high rate and tail latency: the high-rate phase traces
  // every second request, whose echo adds a little server work (see
  // trace_overhead_pct).
  Res.set("p99_ms.low",
          quantile(latencies(Low.Reqs, Low.Obs, Low.Verdict, -1), 0.99));
  std::vector<double> HighLat =
      latencies(High.Reqs, High.Obs, High.Verdict, -1);
  Res.set("p50_ms.high", median(HighLat));
  Res.set("p99_ms.high", quantile(HighLat, 0.99));
  Res.set("goodput_rps", goodputOf(Probes));
  Res.set("gen_late_ms.high", quantile(lateness(High.Reqs, High.Obs), 0.99));
  Res.set("service.rejected",
          statsValue(StatsAfter, "requests", "rejected") -
              statsValue(StatsBefore, "requests", "rejected"));
  Res.set("driver.cache_hits", statsValue(StatsAfter, "cache", "hits") -
                                   statsValue(StatsBefore, "cache", "hits"));
  Res.set("driver.cache_misses",
          statsValue(StatsAfter, "cache", "misses") -
              statsValue(StatsBefore, "cache", "misses"));
  Res.set("driver.delta_hits", statsValue(StatsAfter, "delta", "hits") -
                                   statsValue(StatsBefore, "delta", "hits"));
  Res.set("driver.delta_fallbacks",
          statsValue(StatsAfter, "delta", "fallbacks") -
              statsValue(StatsBefore, "delta", "fallbacks"));

  // In-process layers on the exact payloads of the traced phase.
  std::vector<double> ParseIr, ParseReq, Hash, Classify, DeltaBuild, Bytes;
  std::vector<TaskRef> NewTasks;
  const PipelineOptions Options;
  for (size_t I = 0; I < LowTraced.Reqs.size(); ++I) {
    const Request &Req = LowTraced.Reqs[I];
    const Unique &U = Stream.Uniques[Req.UniqueIndex];
    Bytes.push_back(double(U.Expected.size()));
    ServiceRequest Parsed;
    std::string ParseError;
    ParseReq.push_back(timed(Log, "service.request_parse", -1, I, [&] {
      parseServiceRequest(Req.Payload, Parsed, ParseError);
    }));
    ParsedFunction F;
    ParseIr.push_back(
        timed(Log, "ir.parse", -1, I, [&] { F = parseFunction(U.IrText); }));
    Hash.push_back(timed(Log, "driver.hash", -1, I, [&] {
      uint64_t Key = hashPipelineTask(hashFunction(F.F), ST231, U.Regs,
                                      Options);
      asm volatile("" : : "r"(Key));
    }));
    if (Req.K == Kind::New)
      NewTasks.push_back({&Stream.Functions[Req.UniqueIndex], U.Regs});
    if (Req.K != Kind::Edit)
      continue;
    DeltaBase Base;
    PipelineDeltaContext Capture;
    Capture.Capture = &Base;
    std::vector<unsigned> Budgets = resolveClassBudgets(ST231, U.Regs, {});
    runAllocationPipeline(Stream.Functions[Req.BaseUnique], ST231, Budgets,
                          Options, nullptr, &Capture);
    const Function &Edited = Stream.Functions[Req.UniqueIndex];
    Classify.push_back(timed(Log, "core.delta_classify", -1, I, [&] {
      FunctionDelta D = computeFunctionDelta(Base.Ssa, Edited);
      asm volatile("" : : "r"(D.Compatible));
    }));
    DeltaBuild.push_back(timed(Log, "core.delta_build", -1, I, [&] {
      AllocationProblem P;
      bool Exact = false;
      buildDeltaProblem(Base, Edited, ST231, Budgets, P, Exact);
    }));
  }
  Res.set("ir.parse_ms", mean(ParseIr));
  Res.set("service.request_parse_ms", mean(ParseReq));
  Res.set("driver.hash_ms", mean(Hash));
  Res.set("core.delta_classify_ms", mean(Classify));
  Res.set("core.delta_build_ms", mean(DeltaBuild));
  Res.set("service.response_bytes", mean(Bytes));
  Res.set("driver.run_ms", mean(SpanMs[3]));
  // No suites; the driver's overhead is inside the echoed `driver` span,
  // which unattributed_ms splits instead.
  Res.notReached({"suites.make_ms", "driver.overhead_ms"});

  // Solver layers: the traced phase's `new` functions through the same
  // public-call replay as the batch workloads (per-task means).
  LayerTally T;
  std::vector<TaskOutcome> Expected;
  SpanLog Quiet(false);
  replayTasks(NewTasks, /*Detailed=*/true, nullptr, Quiet, Res, T, Expected);
  setSolverLayerMetrics(T, NewTasks, Res);
  Log.write(Opt.WorkDir + "/spans-" + Opt.Workload + ".jsonl");
  std::printf("serve-jit traced: %zu sampled requests, repeat p50 %.3f ms = "
              "accept %.3f + queue %.3f + dispatch %.3f + driver %.3f + "
              "flush/net %.3f\n",
              FlushNet.size(), median(latencies(LowTraced.Reqs, LowTraced.Obs,
                                                LowTraced.Verdict,
                                                int(Kind::Repeat))),
              median(KindSpan[2][0]), median(KindSpan[2][1]),
              median(KindSpan[2][2]), median(KindSpan[2][3]),
              median(KindSpan[2][4]));
}

} // namespace

RunResult runServeJit(const RunOptions &Opt) {
  RunResult Res;
  SpanLog Log(Opt.Trace);
  const double S = Opt.Smoke ? 2.0 : Opt.Seconds;
  RequestStream Stream(Opt.Seed);

  // Set-up: seeded inputs for the fixed-rate phases, server start until
  // the first pong (three starts; the median counts), and a warm-up
  // stream.  Untraced runs interleave kBlocks low-rate and high-rate
  // blocks and report trimmed means over blocks.  Traced runs send one
  // untraced low-rate phase, one traced low-rate and one traced high-rate
  // phase (20% of the run each), then search the goodput ladder.
  Clock::time_point GenStart = Clock::now();
  Phase Warmup;
  Warmup.Reqs = Stream.phase(kLowRps, 0, 0.2, 0);
  const unsigned Blocks = Opt.Trace || Opt.Smoke ? 1 : kBlocks;
  const double BlockSeconds = S / (2 * Blocks);
  std::vector<Phase> Low(Blocks), High(Blocks);
  Phase LowTraced;
  if (Opt.Trace) {
    Low[0].Reqs = Stream.phase(kLowRps, kLeadInSeconds, 0.2 * S, 0);
    LowTraced.Reqs = Stream.phase(kLowRps, kLeadInSeconds, 0.2 * S, 2);
    High[0].Reqs = Stream.phase(kHighRps, kLeadInSeconds, 0.2 * S, 2);
  } else {
    for (unsigned B = 0; B < Blocks; ++B) {
      Low[B].Reqs = Stream.phase(kLowRps, kLeadInSeconds, BlockSeconds, 0);
      High[B].Reqs = Stream.phase(kHighRps, kLeadInSeconds, BlockSeconds, 0);
    }
  }
  double GenMs = msSince(GenStart);

  const std::string Socket = Opt.WorkDir + "/serve.sock";
  std::vector<double> StartMs;
  std::unique_ptr<ServerProcess> Server;
  for (unsigned Rep = 0; Rep < 3; ++Rep) {
    Server.reset(); // Stops the previous start's server.
    Clock::time_point Start = Clock::now();
    Server = std::make_unique<ServerProcess>(Opt, Socket);
    if (!Server->started() || !Server->waitReady(20000)) {
      Res.Attempted = 1;
      Res.fail("layra-serve did not answer a ping");
      return Res;
    }
    StartMs.push_back(msSince(Start));
  }
  // The third server is the one measured.
  OpenLoopClient Loop;
  std::string Error;
  if (!Loop.connect(Server->socket(), Error)) {
    Res.Attempted = 1;
    Res.fail("cannot connect to layra-serve: " + Error);
    return Res;
  }
  Clock::time_point WarmStart = Clock::now();
  Warmup.Obs = Loop.run(Warmup.Reqs, false);
  Res.set("setup_s",
          (GenMs + median(StartMs) + msSince(WarmStart)) / 1000.0);
  Client Admin = Client::connectToUnix(Server->socket(), &Error);
  auto stats = [&] {
    std::string Out;
    if (!Admin.stats(Out, &Error))
      Res.fail("stats request failed: " + Error);
    return Out;
  };

  std::vector<Probe> Probes;
  std::string StatsBefore, StatsAfter;
  if (Opt.Trace) {
    Low[0].Obs = Loop.run(Low[0].Reqs, false);
    StatsBefore = stats();
    LowTraced.Obs = Loop.run(LowTraced.Reqs, true, &LowTraced.Start);
    StatsAfter = stats();
    High[0].Obs = Loop.run(High[0].Reqs, true);
    // Goodput ladder: from rung kLadderStart, move kLadderStride rungs at
    // a time (up while probes pass, down while they fail) until the
    // verdict flips, then bisect the bracket down to adjacent rungs.
    const double ProbeSeconds = std::max(0.5, 0.4 * S / 5);
    auto probe = [&](int Rung) {
      Probe P;
      P.Rung = Rung;
      P.Rps = ladderRate(Rung);
      P.Data.Reqs = Stream.phase(P.Rps, kLeadInSeconds, ProbeSeconds, 0);
      ::usleep(100000); // Let the previous probe's tail drain.
      P.Data.Obs = Loop.run(P.Data.Reqs, false);
      gradeProbe(P);
      if (std::isinf(P.P99))
        Stream.forget();
      Probes.push_back(std::move(P));
      return Probes.back().Pass;
    };
    int PassRung = 0, FailRung = 0;
    int Rung = kLadderStart;
    const bool StartPass = probe(Rung);
    for (;;) {
      int Next = Rung + (StartPass ? kLadderStride : -kLadderStride);
      if (std::abs(Next) > kLadderMaxSteps)
        break;
      bool Pass = probe(Next);
      Rung = Next;
      if (Pass != StartPass) {
        PassRung = StartPass ? Rung - kLadderStride : Rung;
        FailRung = StartPass ? Rung : Rung + kLadderStride;
        while (FailRung - PassRung > 1) {
          int Mid = (PassRung + FailRung) / 2;
          (probe(Mid) ? PassRung : FailRung) = Mid;
        }
        break;
      }
    }
  } else {
    StatsBefore = stats();
    for (unsigned B = 0; B < Blocks; ++B) {
      Low[B].Obs = Loop.run(Low[B].Reqs, false);
      High[B].Obs = Loop.run(High[B].Reqs, false);
    }
    StatsAfter = stats();
  }
  Res.set("peak_rss_mb", peakRssMb(Server->pid()));
  Admin.close();
  Server->stop();

  // Checks, outside every timed part.
  computeExpected(Stream.Uniques);
  std::string FirstProblem;
  auto judgePhase = [&](Phase &P, bool RefusalFails) {
    P.Verdict = judge(P.Reqs, P.Obs, Stream.Uniques, FirstProblem);
    for (int V : P.Verdict) {
      ++Res.Attempted;
      if (V == 2 || (V == 1 && RefusalFails))
        ++Res.Failed;
    }
  };
  // Overload refusals count as failures at the fixed rates, which are
  // below capacity; on the goodput ladder they only fail the probe.
  judgePhase(Warmup, true);
  for (unsigned B = 0; B < Blocks; ++B) {
    judgePhase(Low[B], true);
    judgePhase(High[B], true);
  }
  if (Opt.Trace)
    judgePhase(LowTraced, true);
  for (Probe &P : Probes) {
    judgePhase(P.Data, false);
    P.Pass = P.Pass && std::all_of(P.Data.Verdict.begin(),
                                   P.Data.Verdict.end(),
                                   [](int V) { return V == 0; });
  }
  if (!FirstProblem.empty())
    Res.Problems.push_back(FirstProblem);

  if (Opt.Trace)
    reportTraced(Opt, Stream, Low[0], LowTraced, High[0], Probes,
                 StatsBefore, StatsAfter, Log, Res);
  else
    reportUntraced(Low, High,
                   shardBusyMs(StatsAfter) - shardBusyMs(StatsBefore), Res);
  return Res;
}

} // namespace perfbench
