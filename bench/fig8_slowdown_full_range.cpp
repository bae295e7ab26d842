//===- bench/fig8_slowdown_full_range.cpp ---------------------------------==//
//
// Regenerates Figure 8: slowdown versus sampling rate over the full range
// r = 0-100%. The paper: overhead grows roughly linearly with the
// sampling rate, reaching ~12x at 100% in their implementation (8x in the
// FastTrack paper's).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "harness/OverheadExperiment.h"

using namespace pacer;
using namespace pacer::bench;

int main(int Argc, char **Argv) {
  BenchOptions Options = parseBenchOptions(Argc, Argv, /*DefaultScale=*/1.5);
  printBanner("Figure 8: slowdown vs sampling rate, r = 0-100%",
              "Slowdown scales roughly linearly with the sampling rate.");

  uint32_t Trials =
      Options.Trials > 0 ? static_cast<uint32_t>(Options.Trials) : 5;
  const std::vector<double> Rates{0.0,  0.01, 0.03, 0.05, 0.10,
                                  0.25, 0.50, 0.75, 1.00};

  std::vector<OverheadConfig> Configs{{"base", nullSetup()}};
  for (double Rate : Rates)
    Configs.push_back({"r=" + formatPercent(Rate, 0), pacerSetup(Rate)});
  // Intra-trial parallel replay: every configuration (including the
  // baseline) shards identically so the slowdown ratios stay comparable.
  // --shards=auto flows through as 0; measureOverheads resolves it once
  // per workload from a probe trace and logs the chosen K.
  for (OverheadConfig &Config : Configs)
    Config.Setup.Shards = Options.Shards;

  TextTable Table;
  std::vector<std::string> Header{"Program"};
  for (size_t I = 1; I < Configs.size(); ++I)
    Header.push_back(Configs[I].Label);
  Table.setHeader(Header);

  Timer Wall;
  bool BelowBaseline = false;
  for (const WorkloadSpec &Spec : Options.Workloads) {
    CompiledWorkload Workload(Spec);
    std::vector<OverheadResult> Results =
        measureOverheads(Workload, Configs, Trials, Options.Seed,
                         Options.Jobs);
    std::vector<std::string> Row{Spec.Name};
    for (size_t I = 1; I < Results.size(); ++I)
      Row.push_back(slowdownCell(Results[I].Slowdown, BelowBaseline));
    Table.addRow(Row);
  }
  std::printf("%s\n(median of %u trials, normalized to the no-analysis "
              "baseline)\n",
              Table.render().c_str(), Trials);
  printSlowdownFaultNote(BelowBaseline);
  printWallClock(Wall, Options);
  return 0;
}
