//===- bench/table3_operation_counts.cpp ----------------------------------==//
//
// Regenerates Table 3: counts of vector-clock joins (slow vs fast) and
// copies (deep vs shallow), and of read/write instrumentation (slow path
// vs fast path), split by sampling vs non-sampling periods, for PACER at
// a 3% sampling rate.
//
// The paper's claim: O(n)-time vector-clock operations are almost
// entirely confined to sampling periods (e.g. eclipse: 2K slow vs
// 149,376K fast non-sampling joins), and non-sampling reads/writes almost
// always take the fast path.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Rng.h"

using namespace pacer;
using namespace pacer::bench;

int main(int Argc, char **Argv) {
  OptionRegistry R = benchOptionRegistry("table3_operation_counts [options]",
                                         /*DefaultScale=*/2.0);
  // Long periods amortize the post-sbegin re-convergence cost, mirroring
  // the paper's 32 MB nurseries against billions of events. Every entry
  // into a sampling period bumps all thread clocks, so the first few
  // joins afterwards are slow until versions converge again.
  R.addInt("period-bytes", 4 * 1024 * 1024,
           "simulated nursery size in bytes");
  BenchOptions Options = parseBenchOptionsFrom(R, Argc, Argv);
  printBanner("Table 3: operation counts at r = 3%",
              "Versions and shallow copies avoid nearly all O(n) analysis "
              "in non-sampling periods.");

  uint32_t Trials =
      Options.Trials > 0 ? static_cast<uint32_t>(Options.Trials) : 5;
  auto PeriodBytes = static_cast<uint64_t>(R.getInt("period-bytes"));

  auto Averaged = [&](const WorkloadSpec &Spec) {
    CompiledWorkload Workload(Spec);
    DetectorStats Sum;
    DetectorSetup Setup = pacerSetup(0.03);
    Setup.Sampling.PeriodBytes = PeriodBytes;
    for (uint32_t Trial = 0; Trial < Trials; ++Trial) {
      DetectorStats Stats =
          AnalysisSession(Workload,
                          trialRequest(Setup,
                                       deriveTrialSeed(Options.Seed, Trial)))
              .analyzeGenerated()
              .Stats;
      Sum.SlowJoinsSampling += Stats.SlowJoinsSampling;
      Sum.FastJoinsSampling += Stats.FastJoinsSampling;
      Sum.SlowJoinsNonSampling += Stats.SlowJoinsNonSampling;
      Sum.FastJoinsNonSampling += Stats.FastJoinsNonSampling;
      Sum.DeepCopiesSampling += Stats.DeepCopiesSampling;
      Sum.ShallowCopiesSampling += Stats.ShallowCopiesSampling;
      Sum.DeepCopiesNonSampling += Stats.DeepCopiesNonSampling;
      Sum.ShallowCopiesNonSampling += Stats.ShallowCopiesNonSampling;
      Sum.ReadSlowSampling += Stats.ReadSlowSampling;
      Sum.ReadSlowNonSampling += Stats.ReadSlowNonSampling;
      Sum.ReadFastNonSampling += Stats.ReadFastNonSampling;
      Sum.WriteSlowSampling += Stats.WriteSlowSampling;
      Sum.WriteSlowNonSampling += Stats.WriteSlowNonSampling;
      Sum.WriteFastNonSampling += Stats.WriteFastNonSampling;
    }
    auto Avg = [&](uint64_t Total) { return Total / Trials; };
    DetectorStats Mean;
    Mean.SlowJoinsSampling = Avg(Sum.SlowJoinsSampling);
    Mean.FastJoinsSampling = Avg(Sum.FastJoinsSampling);
    Mean.SlowJoinsNonSampling = Avg(Sum.SlowJoinsNonSampling);
    Mean.FastJoinsNonSampling = Avg(Sum.FastJoinsNonSampling);
    Mean.DeepCopiesSampling = Avg(Sum.DeepCopiesSampling);
    Mean.ShallowCopiesSampling = Avg(Sum.ShallowCopiesSampling);
    Mean.DeepCopiesNonSampling = Avg(Sum.DeepCopiesNonSampling);
    Mean.ShallowCopiesNonSampling = Avg(Sum.ShallowCopiesNonSampling);
    Mean.ReadSlowSampling = Avg(Sum.ReadSlowSampling);
    Mean.ReadSlowNonSampling = Avg(Sum.ReadSlowNonSampling);
    Mean.ReadFastNonSampling = Avg(Sum.ReadFastNonSampling);
    Mean.WriteSlowSampling = Avg(Sum.WriteSlowSampling);
    Mean.WriteSlowNonSampling = Avg(Sum.WriteSlowNonSampling);
    Mean.WriteFastNonSampling = Avg(Sum.WriteFastNonSampling);
    return Mean;
  };

  std::vector<std::pair<std::string, DetectorStats>> Results;
  for (const WorkloadSpec &Spec : Options.Workloads)
    Results.emplace_back(Spec.Name, Averaged(Spec));

  TextTable Joins;
  Joins.setHeader({"Program", "Samp slow", "Samp fast", "NonSamp slow",
                   "NonSamp fast"});
  for (const auto &[Name, Stats] : Results)
    Joins.addRow({Name, formatThousands(Stats.SlowJoinsSampling),
                  formatThousands(Stats.FastJoinsSampling),
                  formatThousands(Stats.SlowJoinsNonSampling),
                  formatThousands(Stats.FastJoinsNonSampling)});
  std::printf("VC joins\n%s\n", Joins.render().c_str());

  TextTable Copies;
  Copies.setHeader({"Program", "Samp deep", "Samp shallow", "NonSamp deep",
                    "NonSamp shallow"});
  for (const auto &[Name, Stats] : Results)
    Copies.addRow({Name, formatThousands(Stats.DeepCopiesSampling),
                   formatThousands(Stats.ShallowCopiesSampling),
                   formatThousands(Stats.DeepCopiesNonSampling),
                   formatThousands(Stats.ShallowCopiesNonSampling)});
  std::printf("VC copies\n%s\n", Copies.render().c_str());

  TextTable Reads;
  Reads.setHeader({"Program", "Samp slow", "NonSamp slow", "NonSamp fast"});
  for (const auto &[Name, Stats] : Results)
    Reads.addRow({Name, formatThousands(Stats.ReadSlowSampling),
                  formatThousands(Stats.ReadSlowNonSampling),
                  formatThousands(Stats.ReadFastNonSampling)});
  std::printf("Reads\n%s\n", Reads.render().c_str());

  TextTable Writes;
  Writes.setHeader({"Program", "Samp slow", "NonSamp slow", "NonSamp fast"});
  for (const auto &[Name, Stats] : Results)
    Writes.addRow({Name, formatThousands(Stats.WriteSlowSampling),
                   formatThousands(Stats.WriteSlowNonSampling),
                   formatThousands(Stats.WriteFastNonSampling)});
  std::printf("Writes\n%s\n(averages over %u trials at r = 3%%)\n",
              Writes.render().c_str(), Trials);
  return 0;
}
