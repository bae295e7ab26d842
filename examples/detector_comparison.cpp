//===- examples/detector_comparison.cpp - Four algorithms, one trace ------==//
//
// Replays one identical execution of the xalan workload model through all
// four detectors -- GENERIC (O(n) vector clocks), FastTrack, PACER at
// 100%, and online LiteRace -- and compares what they report, what they
// count, how much metadata they keep, and how long analysis takes.
//
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisSession.h"
#include "sim/TraceGenerator.h"
#include "sim/Workloads.h"
#include "support/Table.h"

#include <cstdio>

using namespace pacer;

int main() {
  std::printf("Detector comparison on one execution\n"
              "====================================\n\n");

  WorkloadSpec Spec = scaleWorkload(xalanModel(), 0.15);
  CompiledWorkload Workload(Spec);
  Trace T = generateTrace(Workload, 7);
  TraceProfile Profile = profileTrace(T);
  std::printf("Execution: %llu events (%llu reads, %llu writes, %llu sync "
              "ops; %.1f%% sync)\n\n",
              static_cast<unsigned long long>(Profile.Total),
              static_cast<unsigned long long>(Profile.Reads),
              static_cast<unsigned long long>(Profile.Writes),
              static_cast<unsigned long long>(Profile.SyncOps),
              100.0 * Profile.syncFraction());

  struct Entry {
    const char *Label;
    DetectorSetup Setup;
  };
  DetectorSetup SampledPacer = pacerSetup(0.10);
  SampledPacer.Sampling.PeriodBytes = 12 * 1024; // Many short periods.
  std::vector<Entry> Entries{
      {"GENERIC", genericSetup()},
      {"FastTrack", fastTrackSetup()},
      {"PACER r=100%", pacerSetup(1.0)},
      {"PACER r=10%", SampledPacer},
      {"LiteRace", literaceSetup(10)},
  };

  TextTable Table;
  Table.setHeader({"Detector", "distinct races", "dynamic reports",
                   "metadata KB", "replay ms", "slow joins"});
  double BaselineMs = 0.0;
  for (const Entry &E : Entries) {
    AnalysisResult Result =
        AnalysisSession(Workload, trialRequest(E.Setup, 7)).analyzeTrace(T);
    if (BaselineMs == 0.0)
      BaselineMs = Result.ReplaySeconds * 1000.0;
    uint64_t SlowJoins = Result.Stats.SlowJoinsSampling +
                         Result.Stats.SlowJoinsNonSampling;
    Table.addRow({E.Label, std::to_string(Result.Races.size()),
                  std::to_string(Result.DynamicRaces),
                  std::to_string(Result.FinalMetadataBytes / 1024),
                  formatDouble(Result.ReplaySeconds * 1000.0, 1),
                  std::to_string(SlowJoins)});
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf(
      "Things to notice:\n"
      " * FastTrack and PACER at 100%% report identical races; GENERIC\n"
      "   agrees on which executions are racy.\n"
      " * Sampled PACER reports a sample of the races but keeps metadata\n"
      "   and slow joins near zero -- that is the paper's entire point.\n"
      " * LiteRace misses hot races and its metadata matches full\n"
      "   tracking (it samples code, not data).\n");
  return 0;
}
