//===- fuzz/Fuzzer.cpp - Deterministic fuzzing sessions ---------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "core/SolverWorkspace.h"
#include "fuzz/Corpus.h"
#include "fuzz/Minimizer.h"
#include "fuzz/Mutator.h"
#include "ir/ProgramGen.h"
#include "ir/SsaBuilder.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Random.h"

#include <cstdlib>
#include <memory>
#include <set>
#include <unistd.h>

using namespace layra;

namespace {

/// The in-process allocation server the serve-direct oracle talks to.
/// One per session, started lazily; the socket lives in /tmp and never
/// influences session output (the oracle compares payload bytes only).
/// Runs with more than one shard and a throwaway disk cache on purpose:
/// the byte-identity oracle then also covers shard routing and
/// persistent-cache transparency on every fuzz case.
struct ServeHarness {
  static constexpr unsigned kThreads = 2;
  static constexpr unsigned kShards = 2;
  std::unique_ptr<Server> Srv;
  Client Conn;
  std::string DiskDir;

  bool start(uint64_t Seed, std::string *Error) {
    ServerOptions Opt;
    Opt.UnixPath = "/tmp/layra-fuzz-" + std::to_string(::getpid()) + "-" +
                   std::to_string(Seed) + ".sock";
    Opt.Threads = kThreads;
    Opt.Shards = kShards;
    char Template[] = "/tmp/layra-fuzz-disk-XXXXXX";
    if (char *Dir = ::mkdtemp(Template)) {
      DiskDir = Dir;
      Opt.DiskCacheDir = DiskDir;
    }
    Srv = std::make_unique<Server>(Opt);
    if (!Srv->start(Error))
      return false;
    Conn = Client::connectToUnix(Srv->unixPath(), Error);
    return Conn.valid();
  }

  ~ServeHarness() {
    if (Srv) {
      Conn.close();
      Srv->requestStop();
      Srv->wait();
    }
    if (!DiskDir.empty()) {
      // Best-effort scratch cleanup: entries live two levels deep
      // (DIR/<2-hex>/<key>), nothing else is ever in the directory.
      std::string Cmd = "rm -rf '" + DiskDir + "'";
      (void)!std::system(Cmd.c_str());
    }
  }
};

/// Resolves the oracle set a session runs: explicit names when given,
/// otherwise the whole registry (server-backed oracles only when a
/// server is up).  Unknown names land in \p Errors.
std::vector<const Oracle *> selectOracles(const FuzzOptions &Options,
                                          bool HaveServer,
                                          std::vector<std::string> &Errors) {
  std::vector<const Oracle *> Selected;
  if (Options.Oracles.empty()) {
    for (const Oracle &O : oracleRegistry())
      if (!O.NeedsServer || HaveServer)
        Selected.push_back(&O);
    return Selected;
  }
  for (const std::string &Name : Options.Oracles) {
    const Oracle *O = findOracle(Name);
    if (!O) {
      Errors.push_back("unknown oracle '" + Name + "'");
      continue;
    }
    if (O->NeedsServer && !HaveServer) {
      Errors.push_back("oracle '" + Name +
                       "' needs the in-process server (--serve-oracle)");
      continue;
    }
    Selected.push_back(O);
  }
  return Selected;
}

/// A fresh base case from a perturbed ProgramGen configuration -- the
/// "mutate the generator config" half of the mutation surface.  Sizes
/// stay small enough that the exact-solver oracles are affordable.
FuzzCase generateBase(const TargetDesc &Target, uint64_t Run, Rng &R) {
  ProgramGenOptions Gen;
  Gen.NumVars = 6 + static_cast<unsigned>(R.nextBelow(8));
  Gen.NumParams = 2 + static_cast<unsigned>(R.nextBelow(3));
  Gen.MaxBlocks = 12 + static_cast<unsigned>(R.nextBelow(8));
  Gen.MaxNesting = 1 + static_cast<unsigned>(R.nextBelow(3));
  Gen.ExprsPerBlockMin = 1;
  Gen.ExprsPerBlockMax = 2 + static_cast<unsigned>(R.nextBelow(3));
  Gen.LoopProb = 0.20 + 0.30 * R.nextDouble();
  Gen.IfProb = 0.20 + 0.30 * R.nextDouble();
  Gen.CopyProb = 0.05 + 0.15 * R.nextDouble();
  Gen.NumClasses = Target.numClasses();
  Gen.AltClassProb = 0.25 + 0.25 * R.nextDouble();

  FuzzCase Case;
  Case.TargetName = Target.Name;
  Case.F = generateFunction(R, Gen, "fz" + std::to_string(Run));
  for (unsigned C = 0; C < Target.numClasses(); ++C)
    Case.Budgets.push_back(2 + static_cast<unsigned>(R.nextBelow(7)));
  return Case;
}

/// Finds (or appends) the tally row for \p Name.  Rows are appended in
/// first-seen order, which for the main sweep is selection order --
/// deterministic across runs of the same session configuration.
OracleTally &tallyFor(std::vector<OracleTally> &Tallies,
                      const std::string &Name) {
  for (OracleTally &T : Tallies)
    if (T.Name == Name)
      return T;
  Tallies.push_back(OracleTally{Name, 0, 0, 0});
  return Tallies.back();
}

/// Runs every selected oracle over \p Case; returns the first failure
/// (Ok=true when the case is clean).  \p Checks counts oracle runs.
/// \p Tallies (optional) receives per-oracle pass/fail counts -- the
/// main sweep passes it, minimization re-sweeps pass nullptr so the
/// counters mean the same thing with and without --minimize.
OracleOutcome sweepOracles(const FuzzCase &Case,
                           const std::vector<const Oracle *> &Selected,
                           SolverWorkspace *WS, Client *ServeClient,
                           const std::string &BreakOracle,
                           uint64_t *Checks, std::string *FailedOracle,
                           std::vector<OracleTally> *Tallies = nullptr) {
  SsaConversion Ssa = convertToSsa(Case.F);
  OracleContext Ctx;
  Ctx.Case = &Case;
  Ctx.Target = Case.target();
  Ctx.Ssa = &Ssa.Ssa;
  Ctx.WS = WS;
  Ctx.ServeClient = ServeClient;
  Ctx.ServeThreads = ServeHarness::kThreads;
  Ctx.BreakOracle = BreakOracle;
  for (const Oracle *O : Selected) {
    if (Checks)
      ++*Checks;
    OracleOutcome Outcome = runOracle(*O, Ctx);
    if (Tallies) {
      OracleTally &T = tallyFor(*Tallies, O->Name);
      Outcome.Ok ? ++T.Pass : ++T.Fail;
    }
    if (!Outcome.Ok) {
      if (FailedOracle)
        *FailedOracle = O->Name;
      return Outcome;
    }
  }
  return {};
}

} // namespace

FuzzReport layra::runFuzzSession(const FuzzOptions &Options, std::FILE *Log) {
  FuzzReport Report;
  const TargetDesc *Target = targetByName(Options.TargetName);
  if (!Target) {
    Report.Errors.push_back("unknown target '" + Options.TargetName + "'");
    return Report;
  }

  // Corpus: positive seeds join the base pool, negative seeds must fail
  // to parse cleanly before any fuzzing happens.
  std::vector<FuzzCase> CorpusCases;
  if (!Options.CorpusDir.empty()) {
    std::vector<std::string> CorpusErrors;
    loadCorpus(Options.CorpusDir, CorpusCases, CorpusErrors);
    for (std::string &E : CorpusErrors)
      Report.Errors.push_back("corpus: " + E);
  }
  Report.CorpusSeeds = static_cast<unsigned>(CorpusCases.size());
  if (!Options.NegativeDir.empty()) {
    std::vector<std::string> Violations;
    checkNegativeCorpus(Options.NegativeDir, Violations,
                        &Report.NegativeSeeds);
    for (std::string &V : Violations)
      Report.Errors.push_back("negative corpus: " + V);
  }

  ServeHarness Serve;
  Client *ServeClient = nullptr;
  if (Options.ServeOracle) {
    std::string Error;
    if (Serve.start(Options.Seed, &Error))
      ServeClient = &Serve.Conn;
    else
      Report.Errors.push_back("serve harness: " + Error);
  }

  std::vector<const Oracle *> Selected =
      selectOracles(Options, ServeClient != nullptr, Report.Errors);
  if (Selected.empty())
    Report.Errors.push_back("no oracles selected");
  if (!Report.Errors.empty())
    return Report;
  // Pre-seed one row per selected oracle so a session where an oracle
  // never fired still reports it (with zeros), in selection order.
  for (const Oracle *O : Selected)
    tallyFor(Report.Tallies, O->Name);

  // One long-lived workspace, the BatchDriver worker pattern: reuse
  // across every case is itself under test (workspace-pure oracle).
  SolverWorkspace WS;
  std::set<uint64_t> SeenFailures;

  for (uint64_t Run = 0; Run < Options.Runs; ++Run) {
    Report.Runs = static_cast<unsigned>(Run + 1);
    // Every run draws from its own derived stream: failures and
    // minimization never shift the randomness later runs see.
    uint64_t DeriveState =
        Options.Seed ^ (0x9e3779b97f4a7c15ULL * (Run + 1));
    Rng R(splitMix64(DeriveState));

    FuzzCase Case;
    if (!CorpusCases.empty() && R.nextBool(0.5))
      Case = R.pick(CorpusCases);
    else
      Case = generateBase(*Target, Run, R);
    Case.Seed = Options.Seed;
    Case.Run = Run;
    if (!validateCase(Case) || !normalizeCase(Case))
      continue; // Generator hiccup: count nothing, stay deterministic.

    unsigned Burst =
        1 + static_cast<unsigned>(R.nextBelow(Options.MaxMutationsPerCase));
    for (unsigned M = 0; M < Burst; ++M) {
      FuzzCase Candidate = Case;
      if (!applyRandomMutation(Candidate, R)) {
        ++Report.MutationsRejected;
        continue;
      }
      if (!validateCase(Candidate) || !normalizeCase(Candidate)) {
        ++Report.MutationsRejected;
        continue;
      }
      Case = std::move(Candidate);
      ++Report.MutationsApplied;
    }

    std::string FailedOracle;
    OracleOutcome Outcome =
        sweepOracles(Case, Selected, &WS, ServeClient, Options.BreakOracle,
                     &Report.OracleChecks, &FailedOracle, &Report.Tallies);
    if (Outcome.Ok)
      continue;

    Case.OracleName = FailedOracle;
    Case.Detail = Outcome.Detail;
    const Oracle *O = findOracle(FailedOracle);
    if (Options.Minimize && O) {
      ++tallyFor(Report.Tallies, FailedOracle).Minimized;
      minimizeCase(Case, [&](const FuzzCase &Candidate) {
        return !sweepOracles(Candidate, {O}, &WS, ServeClient,
                             Options.BreakOracle, nullptr, nullptr)
                    .Ok;
      });
      // Minimization may land on a different failure detail; refresh it.
      std::string MinOracle;
      OracleOutcome MinOutcome =
          sweepOracles(Case, {O}, &WS, ServeClient, Options.BreakOracle,
                       nullptr, &MinOracle);
      if (!MinOutcome.Ok)
        Case.Detail = MinOutcome.Detail;
    }

    if (!SeenFailures.insert(hashCase(Case)).second)
      continue; // Same minimized case already reported this session.

    FuzzFailure Failure;
    Failure.Case = Case;
    std::string WriteError;
    Failure.CrashPath =
        writeCrashFile(Options.CrashDir, Case, &WriteError);
    if (Failure.CrashPath.empty())
      Report.Errors.push_back("crash report: " + WriteError);
    if (Log)
      std::fprintf(Log,
                   "FAIL run=%llu oracle=%s instrs=%u crash=%s\n  %s\n",
                   static_cast<unsigned long long>(Run), FailedOracle.c_str(),
                   Case.numInstructions(),
                   Failure.CrashPath.empty() ? "<unwritten>"
                                             : Failure.CrashPath.c_str(),
                   Case.Detail.c_str());
    Report.Failures.push_back(std::move(Failure));
    if (Options.MaxFailures &&
        Report.Failures.size() >= Options.MaxFailures)
      break;
  }

  if (Log) {
    std::fprintf(Log,
                 "fuzz: %u runs, %llu mutations (%llu rejected), %llu "
                 "oracle checks, %zu failures, %u corpus seeds, %u "
                 "negative seeds\n",
                 Report.Runs,
                 static_cast<unsigned long long>(Report.MutationsApplied),
                 static_cast<unsigned long long>(Report.MutationsRejected),
                 static_cast<unsigned long long>(Report.OracleChecks),
                 Report.Failures.size(), Report.CorpusSeeds,
                 Report.NegativeSeeds);
    // Deterministic per-oracle lines (selection order, fixed format):
    // part of the session's observable output, so the bit-for-bit
    // reproducibility check in CI covers them too.
    for (const OracleTally &T : Report.Tallies)
      std::fprintf(Log, "oracle %s: %llu pass, %llu fail, %llu minimized\n",
                   T.Name.c_str(),
                   static_cast<unsigned long long>(T.Pass),
                   static_cast<unsigned long long>(T.Fail),
                   static_cast<unsigned long long>(T.Minimized));
  }
  return Report;
}

OracleOutcome layra::reproduceFile(const std::string &Path,
                                   const FuzzOptions &Options,
                                   std::string *Error) {
  FuzzCase Case;
  if (!loadReproducerFile(Path, Case, Error))
    return {}; // Ok=true, but *Error tells the caller loading failed.

  std::vector<std::string> SelectErrors;
  ServeHarness Serve;
  Client *ServeClient = nullptr;
  if (Options.ServeOracle) {
    std::string ServeError;
    if (Serve.start(Options.Seed, &ServeError))
      ServeClient = &Serve.Conn;
    else if (Error) {
      *Error = "serve harness: " + ServeError;
      return {};
    }
  }

  std::vector<const Oracle *> Selected;
  if (!Case.OracleName.empty()) {
    const Oracle *O = findOracle(Case.OracleName);
    if (!O) {
      if (Error)
        *Error = "reproducer names unknown oracle '" + Case.OracleName + "'";
      return {};
    }
    if (O->NeedsServer && !ServeClient) {
      if (Error)
        *Error = "oracle '" + Case.OracleName +
                 "' needs the in-process server (--serve-oracle)";
      return {};
    }
    Selected.push_back(O);
  } else {
    Selected = selectOracles(Options, ServeClient != nullptr, SelectErrors);
    if (!SelectErrors.empty()) {
      if (Error)
        *Error = SelectErrors.front();
      return {};
    }
  }

  SolverWorkspace WS;
  return sweepOracles(Case, Selected, &WS, ServeClient, Options.BreakOracle,
                      nullptr, nullptr);
}
