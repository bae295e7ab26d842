//===- perfbench/src/Fleet.cpp - fleet-ingest workload --------------------==//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// fleet-ingest: an in-process IngestServer on a Unix socket (PACER at
/// r = 3%, two analysis workers, a snapshot after every commit, streaming
/// replay) fed in a closed loop by two client connections. Each client
/// submits a small binary trace under a fresh id and waits for the
/// verdict, as `racedetect --submit` does, so the fixed costs of a
/// submission -- framing, spool fsync, queueing, and the FleetAggregator
/// commit with its snapshot -- dominate.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Common.h"
#include "Measure.h"

#include "runtime/FleetAggregator.h"
#include "runtime/IngestServer.h"
#include "support/Socket.h"

#include <memory>
#include <mutex>
#include <thread>

using namespace pacer;
using namespace perfbench;

namespace {

constexpr unsigned Clients = 2;
constexpr unsigned PoolSize = 32;
constexpr double FleetRate = 0.03;

struct Fleet {
  std::vector<TraceFile> Files;
  /// In-process analyses of each pool file under the server's request.
  std::vector<AnalysisResult> Refs;
  std::unique_ptr<IngestServer> Server;
  std::string SocketPath;
  std::string Error;
};

AnalysisRequest serverRequest() {
  AnalysisRequest Request;
  Request.Setup = pacerSetup(FleetRate);
  Request.Seed = AnalysisSeed;
  Request.Stream = true;
  return Request;
}

void setUp(Fleet &F, const Options &Opts, const std::string &Dir) {
  for (unsigned I = 0; I < PoolSize; ++I)
    F.Files.push_back(writeWorkloadTrace(Dir, "pseudojbb", 0.5,
                                         TraceFormat::Binary,
                                         Opts.Seed * PoolSize + I, Opts.Tiny));
  const AnalysisSession Session(flatSiteWorkload(), serverRequest());
  for (const TraceFile &File : F.Files)
    F.Refs.push_back(Session.analyzeFile(File.Path));

  IngestServer::Config C;
  C.UnixSocketPath = F.SocketPath = Dir + "/ingest.sock";
  C.SpoolDir = Dir + "/spool";
  C.SnapshotPath = Dir + "/fleet.snap";
  C.Setup = serverRequest().Setup;
  C.Seed = AnalysisSeed;
  C.AnalysisWorkers = 2;
  C.SnapshotEveryN = 1;
  F.Server = std::make_unique<IngestServer>(C);
  if (!F.Server->start(F.Error))
    F.Server.reset();
}

/// One closed-loop phase: every client submits, waits, and submits again
/// until \p BudgetS has passed.
struct Phase {
  Timeline Run;
  std::vector<unsigned> Committed; ///< Pool index of each commit.
  uint64_t Attempted = 0, Failed = 0;
  double PeakRssMb = 0;
  std::vector<std::string> Errors;
};

Phase runPhase(const Fleet &F, const char *Tag, double BudgetS,
               SpanLog *Spans) {
  Phase P;
  std::mutex Mutex;
  resetPeakRss();
  const Clock::time_point Start = Clock::now();
  const double Cpu0 = processCpuMs();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      std::string Error;
      Socket S = Socket::connectUnix(F.SocketPath, Error);
      Phase Mine;
      if (!S.valid()) {
        ++Mine.Attempted;
        ++Mine.Failed;
        Mine.Errors.push_back("connect: " + Error);
      }
      for (uint64_t K = 0; S.valid() && msSince(Start) < BudgetS * 1e3;
           ++K) {
        const unsigned Index = (C + Clients * K) % PoolSize;
        const std::string Id = std::string(Tag) + "-c" + std::to_string(C) +
                               "-" + std::to_string(K);
        const int64_t Span =
            Spans ? Spans->begin("submit", (uint64_t(C) << 32) | K) : -1;
        const Clock::time_point T0 = Clock::now();
        ingest::SubmitResult R =
            ingest::submitFile(S, F.Files[Index].Path, Id);
        const Clock::time_point T1 = Clock::now();
        if (Spans)
          Spans->end(Span);
        ++Mine.Attempted;
        const bool Committed = R.Ok && R.Code == ingest::Status::Committed;
        const uint64_t Actions = Committed ? F.Files[Index].Actions : 0;
        Mine.Run.Samples.push_back({msBetween(T0, T1), Actions});
        if (Committed) {
          Mine.Committed.push_back(Index);
        } else {
          ++Mine.Failed;
          Mine.Errors.push_back(Id + ": " + ingest::statusName(R.Code) +
                                " " + R.Message);
          if (!R.Ok)
            break; // The connection is gone.
        }
      }
      std::lock_guard<std::mutex> G(Mutex);
      P.Run.Samples.insert(P.Run.Samples.end(), Mine.Run.Samples.begin(),
                           Mine.Run.Samples.end());
      P.Committed.insert(P.Committed.end(), Mine.Committed.begin(),
                         Mine.Committed.end());
      P.Errors.insert(P.Errors.end(), Mine.Errors.begin(), Mine.Errors.end());
      P.Attempted += Mine.Attempted;
      P.Failed += Mine.Failed;
    });
  }
  for (std::thread &T : Threads)
    T.join();
  P.Run.WallMs = msSince(Start);
  P.Run.CpuMs = processCpuMs() - Cpu0;
  P.PeakRssMb = peakRssMb();
  return P;
}

double stageMeanMs(const IngestServer::StageStats &After,
                   const IngestServer::StageStats &Before) {
  return ratio(After.TotalMs - Before.TotalMs,
               static_cast<double>(After.Count - Before.Count));
}

} // namespace

Outcome perfbench::runFleet(const Options &Opts) {
  Outcome Out;
  Fleet F;
  const double SetupS = timedSetups(
      Opts.WorkDir,
      [&](const std::string &Dir) { setUp(F, Opts, Dir); },
      [&] {
        if (F.Server)
          F.Server->stop();
        F = Fleet();
      });
  if (!F.Server) {
    Out.fail("ingest server did not start: " + F.Error);
    return Out;
  }
  for (size_t I = 0; I < F.Files.size(); ++I) {
    Out.Notes.push_back(describeTrace(F.Files[I]));
    if (!F.Refs[I].Ok)
      Out.fail(F.Files[I].Label + ": reference analysis failed: " +
               F.Refs[I].Error);
  }
  if (Opts.WrongReference != Options::Corruption::None) {
    // A deliberately wrong reference: the aggregate check must fail.
    F.Refs.front().Races[RaceKey{0xFFFFFFF0u, 0xFFFFFFF1u}] = 1;
    Out.Notes.push_back("wrong reference injected (self-test)");
  }

  std::vector<unsigned> Committed;
  auto Absorb = [&](const Phase &P) {
    Out.Attempted += P.Attempted;
    Out.Failed += P.Failed;
    Committed.insert(Committed.end(), P.Committed.begin(), P.Committed.end());
    for (size_t I = 0; I < P.Errors.size() && I < 3; ++I)
      Out.fail("submission " + P.Errors[I]);
  };

  SpanLog Spans;
  Phase Run;
  if (!Opts.Trace) {
    Run = runPhase(F, "run", Opts.Seconds, nullptr);
    Absorb(Run);
  } else {
    const Phase Base = runPhase(F, "base", 0.4 * Opts.Seconds, nullptr);
    Absorb(Base);
    const IngestServer::Counters Before = F.Server->counters();
    const Phase Traced = runPhase(F, "traced", 0.6 * Opts.Seconds, &Spans);
    Absorb(Traced);
    const IngestServer::Counters After = F.Server->counters();

    for (const MetricDef &Def : perLayerMetrics())
      Out.Metrics[Def.Name] = 0.0;
    const double Spool = stageMeanMs(After.Spool, Before.Spool);
    const double Analyze = stageMeanMs(After.Analyze, Before.Analyze);
    const double Commit = stageMeanMs(After.Commit, Before.Commit);
    double ClientMs = 0;
    for (const Timeline::Sample &S : Traced.Run.Samples)
      ClientMs += S.LatencyMs;
    ClientMs = ratio(ClientMs, static_cast<double>(Traced.Run.Samples.size()));
    Out.Metrics["ingest.spool_ms.mean"] = Spool;
    Out.Metrics["ingest.analyze_ms.mean"] = Analyze;
    Out.Metrics["ingest.commit_ms.mean"] = Commit;
    Out.Metrics["ingest.wait_ms.mean"] = ClientMs - Spool - Analyze - Commit;
    Out.Metrics["runtime.shards"] = 1;
    const double BaseMact = Base.Run.summarize().ThroughputMactS;
    const double TracedMact = Traced.Run.summarize().ThroughputMactS;
    Out.Metrics["trace.throughput_mact_s"] = TracedMact;
    Out.Metrics["trace.overhead_mact_s"] = BaseMact - TracedMact;
    const auto Self = Spans.meanSelfMs();
    auto It = Self.find("submit");
    Out.Metrics["span.submit.self_ms"] = It == Self.end() ? 0.0 : It->second;
    Out.Notes.push_back("tracing: untraced " + std::to_string(BaseMact) +
                        " Mact/s, traced " + std::to_string(TracedMact) +
                        " Mact/s, " + std::to_string(Spans.size()) + " spans");
  }

  // The fleet state must equal in-process analyses of what was committed.
  FleetAggregator Expected(FleetRate);
  for (unsigned Index : Committed)
    Expected.addInstance(F.Refs[Index].Races, F.Refs[Index].SampleReports,
                         -1.0);
  if (Expected.serialize() != F.Server->aggregatorCopy().serialize()) {
    ++Out.Failed;
    Out.fail("aggregatorCopy() differs from in-process analyses of the "
             "committed files");
  }
  F.Server->stop();

  if (Opts.Trace)
    writeSpans(Spans, Opts, Out);
  else
    reportEndToEnd(Run.Run, Run.PeakRssMb, SetupS, "submissions", Out);
  return Out;
}
