//===- bench/ablation_design_choices.cpp ----------------------------------==//
//
// Ablations of PACER's design choices (DESIGN.md §6):
//
//  1. Version fast joins off: every join pays the O(n) comparison.
//  2. Clock sharing off: every release deep-copies; space and copy counts
//     rise.
//  3. Sampling-bias correction off: effective rate undershoots the
//     specified rate (Section 4's motivation for the correction).
//  4. Metadata discard off: non-sampling periods keep stale (ordered)
//     metadata; space stops scaling with the sampling rate.
//  5. FastTrack read-map clearing off (original FastTrack): extra stale
//     read reports.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Rng.h"

using namespace pacer;
using namespace pacer::bench;

int main(int Argc, char **Argv) {
  BenchOptions Options = parseBenchOptions(Argc, Argv, /*DefaultScale=*/0.4);
  printBanner("Ablation: PACER design choices",
              "Each row removes one mechanism and shows what it bought.");

  uint32_t Trials =
      Options.Trials > 0 ? static_cast<uint32_t>(Options.Trials) : 5;

  for (const WorkloadSpec &Spec : Options.Workloads) {
    CompiledWorkload Workload(Spec);
    std::printf("--- %s ---\n", Spec.Name.c_str());
    auto RunTrial = [&](const DetectorSetup &Setup, uint32_t Trial) {
      return AnalysisSession(
                 Workload,
                 trialRequest(Setup, deriveTrialSeed(Options.Seed, Trial)))
          .analyzeGenerated();
    };

    // 1 & 2: operation counts and space at r = 3%.
    DetectorSetup Full = pacerSetup(0.03);
    Full.Sampling.PeriodBytes = 12 * 1024;
    DetectorSetup NoVersions = Full;
    NoVersions.Pacer.UseVersionFastJoins = false;
    DetectorSetup NoSharing = Full;
    NoSharing.Pacer.UseClockSharing = false;
    DetectorSetup NoDiscard = Full;
    NoDiscard.Pacer.DiscardMetadata = false;

    TextTable Table;
    Table.setHeader({"Config", "slow joins (non-samp)",
                     "deep copies (non-samp)", "final metadata KB",
                     "races"});
    struct Case {
      const char *Label;
      DetectorSetup Setup;
    };
    for (const Case &C :
         {Case{"full PACER", Full}, Case{"no version fast joins", NoVersions},
          Case{"no clock sharing", NoSharing},
          Case{"no metadata discard", NoDiscard}}) {
      uint64_t SlowJoins = 0, DeepCopies = 0, Races = 0;
      size_t Bytes = 0;
      for (uint32_t Trial = 0; Trial < Trials; ++Trial) {
        AnalysisResult Result = RunTrial(C.Setup, Trial);
        SlowJoins += Result.Stats.SlowJoinsNonSampling;
        DeepCopies += Result.Stats.DeepCopiesNonSampling;
        Races += Result.DynamicRaces;
        Bytes += Result.FinalMetadataBytes;
      }
      Table.addRow({C.Label, formatThousands(SlowJoins / Trials),
                    formatThousands(DeepCopies / Trials),
                    std::to_string(Bytes / Trials / 1024),
                    std::to_string(Races / Trials)});
    }
    std::printf("%s", Table.render().c_str());

    // 3: bias correction.
    DetectorSetup Corrected = pacerSetup(0.10);
    Corrected.Sampling.PeriodBytes = 12 * 1024; // Many periods per trial.
    DetectorSetup Uncorrected = Corrected;
    Uncorrected.Sampling.BiasCorrection = false;
    RunningStat WithFix, WithoutFix;
    for (uint32_t Trial = 0; Trial < Trials; ++Trial) {
      WithFix.add(RunTrial(Corrected, Trial).EffectiveAccessRate);
      WithoutFix.add(RunTrial(Uncorrected, Trial).EffectiveAccessRate);
    }
    std::printf("bias correction at r=10%%: corrected %s vs uncorrected "
                "%s\n",
                formatPercent(WithFix.mean(), 2).c_str(),
                formatPercent(WithoutFix.mean(), 2).c_str());

    // 4: escape analysis (Section 4's compiler pass): eliding provably
    // local accesses removes instrumentation without losing races.
    DetectorSetup WithEscape = Full;
    WithEscape.ElideLocalAccesses = true;
    uint64_t AccessesPlain = 0, AccessesElided = 0;
    double SecondsPlain = 0, SecondsElided = 0;
    for (uint32_t Trial = 0; Trial < Trials; ++Trial) {
      AnalysisResult P = RunTrial(Full, Trial);
      AnalysisResult E = RunTrial(WithEscape, Trial);
      AccessesPlain += P.Stats.totalReads() + P.Stats.totalWrites();
      AccessesElided += E.Stats.totalReads() + E.Stats.totalWrites();
      SecondsPlain += P.ReplaySeconds;
      SecondsElided += E.ReplaySeconds;
    }
    std::printf("escape analysis: instrumented accesses %lluK -> %lluK, "
                "analysis time x%.2f\n",
                static_cast<unsigned long long>(AccessesPlain / Trials /
                                                1000),
                static_cast<unsigned long long>(AccessesElided / Trials /
                                                1000),
                SecondsPlain > 0 ? SecondsElided / SecondsPlain : 1.0);

    // 5: FastTrack read-map clearing.
    DetectorSetup Modified = fastTrackSetup();
    DetectorSetup Original = fastTrackSetup();
    Original.FastTrack.ClearReadMapAtWrite = false;
    uint64_t ModifiedRaces = 0, OriginalRaces = 0;
    for (uint32_t Trial = 0; Trial < Trials; ++Trial) {
      ModifiedRaces += RunTrial(Modified, Trial).DynamicRaces;
      OriginalRaces += RunTrial(Original, Trial).DynamicRaces;
    }
    std::printf("FastTrack dynamic reports: paper-modified %llu vs "
                "original %llu (original keeps stale read epochs)\n\n",
                static_cast<unsigned long long>(ModifiedRaces / Trials),
                static_cast<unsigned long long>(OriginalRaces / Trials));
  }
  return 0;
}
