//===- bench/fig9_slowdown_zoom.cpp ---------------------------------------==//
//
// Regenerates Figure 9: the zoomed view of slowdown versus sampling rate
// for r = 0-10%, where the deployment-relevant operating points live.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "harness/OverheadExperiment.h"

using namespace pacer;
using namespace pacer::bench;

int main(int Argc, char **Argv) {
  BenchOptions Options = parseBenchOptions(Argc, Argv, /*DefaultScale=*/1.5);
  printBanner("Figure 9: slowdown vs sampling rate, r = 0-10% (zoom)",
              "The low-rate regime: small, roughly linear overhead "
              "increases per point of sampling rate.");

  uint32_t Trials =
      Options.Trials > 0 ? static_cast<uint32_t>(Options.Trials) : 5;
  const std::vector<double> Rates{0.0,  0.01, 0.02, 0.03, 0.05,
                                  0.07, 0.10};

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
