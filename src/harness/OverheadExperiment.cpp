//===- harness/OverheadExperiment.cpp -------------------------------------==//

#include "harness/OverheadExperiment.h"

#include "runtime/AnalysisSession.h"
#include "runtime/TraceIndex.h"
#include "sim/TraceGenerator.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <optional>

using namespace pacer;

std::vector<OverheadResult>
pacer::measureOverheads(const CompiledWorkload &Workload,
                        const std::vector<OverheadConfig> &Configs,
                        uint32_t Trials, uint64_t BaseSeed, unsigned Jobs) {
  // One shared index per trial when every configuration replays the raw
  // trace at the same shard count: the build then happens once, outside
  // every timed region, matching how a long-lived analysis would amortize
  // it. Mixed shard counts or local-access elision fall back to per-call
  // handling inside AnalysisSession::analyzeTrace.
  unsigned SharedIndexShards = 0;
  {
    bool Uniform = !Configs.empty();
    for (const OverheadConfig &C : Configs) {
      const DetectorSetup &S = C.Setup;
      if (S.Shards <= 1 || !S.ShardUseIndex || S.ElideLocalAccesses ||
          (SharedIndexShards != 0 && S.Shards != SharedIndexShards)) {
        Uniform = false;
        break;
      }
      SharedIndexShards = S.Shards;
    }
    if (!Uniform)
      SharedIndexShards = 0;
  }

  // One repetition = generate the trial's trace, then time every
  // configuration on that identical trace. Repetitions are independent,
  // so they parallelize; per-trial seconds land in trial-indexed slots
  // and the median aggregation below is order-insensitive anyway.
  struct TrialSeconds {
    std::vector<double> PerConfig;
    std::vector<uint64_t> Hot, Cold;
    uint64_t Events = 0;
  };
  std::vector<TrialSeconds> PerTrial =
      parallelMap(Jobs, Trials, [&](size_t Trial) {
        uint64_t Seed = deriveTrialSeed(BaseSeed, Trial);
        Trace T = generateTrace(Workload, Seed);
        std::optional<TraceIndex> Index;
        if (SharedIndexShards != 0)
          Index.emplace(TraceIndex::build(T, SharedIndexShards));
        TrialSeconds Out;
        Out.Events = T.size();
        Out.PerConfig.reserve(Configs.size());
        for (const OverheadConfig &Config : Configs) {
          AnalysisResult Result =
              AnalysisSession(Workload, trialRequest(Config.Setup, Seed))
                  .analyzeTrace(T, Index ? &*Index : nullptr);
          Out.PerConfig.push_back(Result.ReplaySeconds);
          Out.Hot.push_back(Result.HotAccesses);
          Out.Cold.push_back(Result.ColdAccesses);
        }
        return Out;
      });

  std::vector<std::vector<double>> Seconds(Configs.size());
  std::vector<uint64_t> Hot(Configs.size(), 0), Cold(Configs.size(), 0);
  uint64_t TotalEvents = 0;
  for (const TrialSeconds &Trial : PerTrial) {
    TotalEvents += Trial.Events;
    for (size_t I = 0; I != Configs.size(); ++I) {
      Seconds[I].push_back(Trial.PerConfig[I]);
      Hot[I] += Trial.Hot[I];
      Cold[I] += Trial.Cold[I];
    }
  }

  double AvgEvents = Trials == 0 ? 0.0
                                 : static_cast<double>(TotalEvents) /
                                       static_cast<double>(Trials);
  std::vector<OverheadResult> Results;
  double Baseline = 0.0;
  for (size_t I = 0; I != Configs.size(); ++I) {
    OverheadResult Result;
    Result.Label = Configs[I].Label;
    Result.MedianSeconds = median(Seconds[I]);
    if (I == 0)
      Baseline = Result.MedianSeconds;
    Result.Slowdown =
        Baseline > 0.0 ? Result.MedianSeconds / Baseline : 1.0;
    Result.EventsPerSecond = Result.MedianSeconds > 0.0
                                 ? AvgEvents / Result.MedianSeconds
                                 : 0.0;
    Result.HotAccesses = Hot[I];
    Result.ColdAccesses = Cold[I];
    Results.push_back(Result);
  }
  return Results;
}

std::vector<OverheadConfig>
pacer::figure7Configs(const std::vector<double> &Rates) {
  std::vector<OverheadConfig> Configs;
  Configs.push_back({"base", nullSetup()});

  // "OM + sync ops, r=0%": synchronization instrumentation only; all
  // vector-clock operations use fast joins and shallow copies.
  DetectorSetup SyncOnly = pacerSetup(0.0);
  SyncOnly.Pacer.InstrumentReadsWrites = false;
  Configs.push_back({"OM + sync ops, r=0%", SyncOnly});

  // "Pacer, r=0%": read/write instrumentation inserted but never sampled;
  // measures the inlined fast-path check.
  Configs.push_back({"Pacer, r=0%", pacerSetup(0.0)});

  for (double Rate : Rates) {
    char Label[48];
    std::snprintf(Label, sizeof(Label), "Pacer, r=%g%%", Rate * 100.0);
    Configs.push_back({Label, pacerSetup(Rate)});
  }
  return Configs;
}
