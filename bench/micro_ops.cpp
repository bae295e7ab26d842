//===- bench/micro_ops.cpp - Core-operation microbenchmarks ---------------==//
//
// google-benchmark microbenchmarks for the primitive operations whose
// costs drive the paper's performance claims: O(n) vector-clock joins and
// copies vs O(1) epoch checks, version-epoch fast joins vs slow joins,
// shallow vs deep clock copies, and the read/write fast-path check.
//
// `micro_ops --json` skips google-benchmark and instead replays a fixed
// trace under every detector, writing machine-readable per-detector
// events/sec, p50/p95 per-event latency, and the dynamic race count to
// BENCH_micro_ops.json (override with --json-out=PATH). Diffing that file
// across commits shows per-event speedups and catches any change in the
// races a detector reports.
//
//===----------------------------------------------------------------------===//

#include "core/ClockKernels.h"
#include "core/Epoch.h"
#include "core/ReadMap.h"
#include "core/SyncClock.h"
#include "core/VersionEpoch.h"
#include "detectors/PacerDetector.h"
#include "detectors/FastTrackDetector.h"
#include "runtime/AnalysisSession.h"
#include "runtime/Runtime.h"
#include "runtime/TraceIndex.h"
#include "sim/TraceGenerator.h"
#include "sim/Workloads.h"
#include "support/CommandLine.h"
#include "support/Stats.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace pacer;

namespace {

//===----------------------------------------------------------------------===//
// Clock-kernel rows: SIMD vs genuinely scalar baselines
//===----------------------------------------------------------------------===//
//
// The baselines below must stay scalar even at -O3, where the compiler
// would otherwise auto-vectorize them and erase the margin the rows are
// supposed to show. GCC takes a per-function optimize attribute; clang
// takes a per-loop pragma.

#if defined(__clang__)
#define PACER_NOVEC_FN
#define PACER_NOVEC_LOOP                                                     \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#elif defined(__GNUC__)
#define PACER_NOVEC_FN __attribute__((optimize("no-tree-vectorize")))
#define PACER_NOVEC_LOOP
#else
#define PACER_NOVEC_FN
#define PACER_NOVEC_LOOP
#endif

PACER_NOVEC_FN bool naiveJoinMax(uint32_t *A, const uint32_t *B, size_t N) {
  bool Changed = false;
  PACER_NOVEC_LOOP
  for (size_t I = 0; I < N; ++I) {
    if (B[I] > A[I]) {
      A[I] = B[I];
      Changed = true;
    }
  }
  return Changed;
}

PACER_NOVEC_FN bool naiveAllLeq(const uint32_t *A, const uint32_t *B,
                                size_t N) {
  PACER_NOVEC_LOOP
  for (size_t I = 0; I < N; ++I)
    if (A[I] > B[I])
      return false;
  return true;
}

PACER_NOVEC_FN void naiveCopy(uint32_t *Dst, const uint32_t *Src, size_t N) {
  PACER_NOVEC_LOOP
  for (size_t I = 0; I < N; ++I)
    Dst[I] = Src[I];
}

PACER_NOVEC_FN void naiveRemapGather(uint32_t *Dst, const uint32_t *Src,
                                     const uint32_t *Idx, size_t N) {
  PACER_NOVEC_LOOP
  for (size_t I = 0; I < N; ++I)
    Dst[I] = Src[Idx[I]];
}

PACER_NOVEC_FN size_t naiveTrimTrailingZeros(const uint32_t *A, size_t N) {
  PACER_NOVEC_LOOP
  while (N > 0 && A[N - 1] == 0)
    --N;
  return N;
}

std::vector<uint32_t> kernelWords(size_t N, uint32_t Base) {
  std::vector<uint32_t> Out(N);
  for (size_t I = 0; I < N; ++I)
    Out[I] = Base + static_cast<uint32_t>(I * 2654435761u % 1000);
  return Out;
}

void BM_KernelJoinSimd(benchmark::State &State) {
  auto N = static_cast<size_t>(State.range(0));
  std::vector<uint32_t> A = kernelWords(N, 1), B = kernelWords(N, 7);
  for (auto _ : State)
    benchmark::DoNotOptimize(kernels::joinMax(A.data(), B.data(), N));
}
BENCHMARK(BM_KernelJoinSimd)->Arg(2)->Arg(8)->Arg(64)->Arg(512);

void BM_KernelJoinScalar(benchmark::State &State) {
  auto N = static_cast<size_t>(State.range(0));
  std::vector<uint32_t> A = kernelWords(N, 1), B = kernelWords(N, 7);
  for (auto _ : State)
    benchmark::DoNotOptimize(naiveJoinMax(A.data(), B.data(), N));
}
BENCHMARK(BM_KernelJoinScalar)->Arg(2)->Arg(8)->Arg(64)->Arg(512);

void BM_KernelLeqSimd(benchmark::State &State) {
  auto N = static_cast<size_t>(State.range(0));
  std::vector<uint32_t> A = kernelWords(N, 1), B = A; // Full-length scan.
  for (auto _ : State)
    benchmark::DoNotOptimize(kernels::allLeq(A.data(), B.data(), N));
}
BENCHMARK(BM_KernelLeqSimd)->Arg(2)->Arg(8)->Arg(64)->Arg(512);

void BM_KernelLeqScalar(benchmark::State &State) {
  auto N = static_cast<size_t>(State.range(0));
  std::vector<uint32_t> A = kernelWords(N, 1), B = A;
  for (auto _ : State)
    benchmark::DoNotOptimize(naiveAllLeq(A.data(), B.data(), N));
}
BENCHMARK(BM_KernelLeqScalar)->Arg(2)->Arg(8)->Arg(64)->Arg(512);

void BM_KernelCopySimd(benchmark::State &State) {
  auto N = static_cast<size_t>(State.range(0));
  std::vector<uint32_t> Src = kernelWords(N, 3), Dst(N);
  for (auto _ : State) {
    kernels::copyWords(Dst.data(), Src.data(), N);
    benchmark::DoNotOptimize(Dst.data());
  }
}
BENCHMARK(BM_KernelCopySimd)->Arg(2)->Arg(8)->Arg(64)->Arg(512);

void BM_KernelCopyScalar(benchmark::State &State) {
  auto N = static_cast<size_t>(State.range(0));
  std::vector<uint32_t> Src = kernelWords(N, 3), Dst(N);
  for (auto _ : State) {
    naiveCopy(Dst.data(), Src.data(), N);
    benchmark::DoNotOptimize(Dst.data());
  }
}
BENCHMARK(BM_KernelCopyScalar)->Arg(2)->Arg(8)->Arg(64)->Arg(512);

/// The half-density accordion pack: every second slot survives, so the
/// remap gathers N/2 of N components (NewToOld[i] = 2i).
std::vector<uint32_t> halfDensityIndex(size_t Width) {
  std::vector<uint32_t> Idx(Width / 2);
  for (size_t I = 0; I < Idx.size(); ++I)
    Idx[I] = static_cast<uint32_t>(2 * I);
  return Idx;
}

/// Trim input: a live prefix of Width/2 nonzero components followed by
/// Width/2 explicit zeros (what a compaction just vacated).
std::vector<uint32_t> halfTrimmedWords(size_t Width) {
  std::vector<uint32_t> Words = kernelWords(Width, 1);
  for (size_t I = Width / 2; I < Width; ++I)
    Words[I] = 0;
  return Words;
}

void BM_KernelRemapSimd(benchmark::State &State) {
  auto Width = static_cast<size_t>(State.range(0));
  std::vector<uint32_t> Src = kernelWords(Width, 3), Dst(Width / 2);
  std::vector<uint32_t> Idx = halfDensityIndex(Width);
  for (auto _ : State) {
    kernels::remapGather(Dst.data(), Src.data(), Idx.data(), Idx.size());
    benchmark::DoNotOptimize(Dst.data());
  }
}
BENCHMARK(BM_KernelRemapSimd)->Arg(64)->Arg(512)->Arg(4096);

void BM_KernelRemapScalar(benchmark::State &State) {
  auto Width = static_cast<size_t>(State.range(0));
  std::vector<uint32_t> Src = kernelWords(Width, 3), Dst(Width / 2);
  std::vector<uint32_t> Idx = halfDensityIndex(Width);
  for (auto _ : State) {
    naiveRemapGather(Dst.data(), Src.data(), Idx.data(), Idx.size());
    benchmark::DoNotOptimize(Dst.data());
  }
}
BENCHMARK(BM_KernelRemapScalar)->Arg(64)->Arg(512)->Arg(4096);

void BM_KernelTrimSimd(benchmark::State &State) {
  auto Width = static_cast<size_t>(State.range(0));
  std::vector<uint32_t> Words = halfTrimmedWords(Width);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        kernels::trimTrailingZeros(Words.data(), Width));
}
BENCHMARK(BM_KernelTrimSimd)->Arg(64)->Arg(512)->Arg(4096);

void BM_KernelTrimScalar(benchmark::State &State) {
  auto Width = static_cast<size_t>(State.range(0));
  std::vector<uint32_t> Words = halfTrimmedWords(Width);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        naiveTrimTrailingZeros(Words.data(), Width));
}
BENCHMARK(BM_KernelTrimScalar)->Arg(64)->Arg(512)->Arg(4096);

VectorClock makeClock(size_t Threads, uint32_t Base) {
  VectorClock Clock;
  for (size_t I = 0; I < Threads; ++I)
    Clock.set(static_cast<ThreadId>(I), Base + static_cast<uint32_t>(I));
  return Clock;
}

void BM_VectorClockJoin(benchmark::State &State) {
  auto Threads = static_cast<size_t>(State.range(0));
  VectorClock A = makeClock(Threads, 1);
  VectorClock B = makeClock(Threads, 2);
  for (auto _ : State) {
    VectorClock C = A;
    benchmark::DoNotOptimize(C.joinWith(B));
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_VectorClockJoin)->Range(8, 1024)->Complexity();

void BM_VectorClockLeq(benchmark::State &State) {
  auto Threads = static_cast<size_t>(State.range(0));
  VectorClock A = makeClock(Threads, 1);
  VectorClock B = makeClock(Threads, 2);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.leq(B));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_VectorClockLeq)->Range(8, 1024)->Complexity();

void BM_EpochPrecedes(benchmark::State &State) {
  // The O(1) replacement for the O(n) comparison.
  VectorClock C = makeClock(1024, 5);
  Epoch E = Epoch::make(17, 512);
  for (auto _ : State)
    benchmark::DoNotOptimize(E.precedes(C));
}
BENCHMARK(BM_EpochPrecedes);

void BM_VersionEpochFastJoinCheck(benchmark::State &State) {
  // PACER's redundant-join detection: one array read and compare.
  VersionVector Ver = makeClock(1024, 3);
  VersionEpoch VEpoch = VersionEpoch::make(900, 700);
  for (auto _ : State)
    benchmark::DoNotOptimize(VEpoch.precedes(Ver));
}
BENCHMARK(BM_VersionEpochFastJoinCheck);

void BM_DeepCopy(benchmark::State &State) {
  auto Threads = static_cast<size_t>(State.range(0));
  SyncClock Thread;
  Thread.mutableClock().copyFrom(makeClock(Threads, 1));
  SyncClock Lock;
  for (auto _ : State)
    Lock.deepCopyFrom(Thread, nullptr);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_DeepCopy)->Range(8, 1024)->Complexity();

void BM_ShallowCopy(benchmark::State &State) {
  auto Threads = static_cast<size_t>(State.range(0));
  SyncClock Thread;
  Thread.mutableClock().copyFrom(makeClock(Threads, 1));
  Thread.setShared();
  SyncClock Lock;
  for (auto _ : State)
    Lock.shallowCopyFrom(Thread); // O(1) regardless of clock width.
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_ShallowCopy)->Range(8, 1024)->Complexity();

void BM_ReadMapEpochUpdate(benchmark::State &State) {
  ReadMap R;
  VectorClock C = makeClock(8, 3);
  for (auto _ : State) {
    R.setEpoch(Epoch::make(3, 1), 9);
    benchmark::DoNotOptimize(R.leqClock(C));
  }
}
BENCHMARK(BM_ReadMapEpochUpdate);

void BM_ReadMapSharedUpdate(benchmark::State &State) {
  auto Readers = static_cast<uint32_t>(State.range(0));
  ReadMap R;
  R.setEpoch(Epoch::make(1, 0), 1);
  R.inflateToMap();
  for (uint32_t I = 1; I < Readers; ++I)
    R.setEntry(I, I, I);
  uint32_t Tid = 0;
  for (auto _ : State) {
    R.setEntry(Tid % Readers, 5, 5);
    ++Tid;
  }
}
BENCHMARK(BM_ReadMapSharedUpdate)->Range(2, 128);

void BM_PacerFastPathRead(benchmark::State &State) {
  // The inlined non-sampling check: flag test plus hash lookup miss.
  NullRaceSink Sink;
  PacerDetector D(Sink);
  VarId Var = 0;
  for (auto _ : State) {
    D.read(0, Var, 1);
    Var = (Var + 1) & 0xffff;
  }
}
BENCHMARK(BM_PacerFastPathRead);

void BM_FastTrackSameEpochRead(benchmark::State &State) {
  NullRaceSink Sink;
  FastTrackDetector D(Sink);
  D.read(0, 5, 1);
  for (auto _ : State)
    D.read(0, 5, 1); // Same-epoch fast path.
}
BENCHMARK(BM_FastTrackSameEpochRead);

void BM_ReplayTinyWorkload(benchmark::State &State) {
  // End-to-end per-event cost at the given sampling rate (x1000).
  double Rate = static_cast<double>(State.range(0)) / 1000.0;
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 1);
  for (auto _ : State) {
    NullRaceSink Sink;
    PacerDetector D(Sink);
    SamplingConfig Config;
    Config.TargetRate = Rate;
    SamplingController Controller(Config, 7);
    Runtime RT(D, &Controller);
    RT.replay(T);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(T.size()));
}
BENCHMARK(BM_ReplayTinyWorkload)->Arg(0)->Arg(10)->Arg(30)->Arg(1000);

//===----------------------------------------------------------------------===//
// --json mode
//===----------------------------------------------------------------------===//

/// One kernel operation at one clock width: the active-ISA kernel against
/// the pinned-scalar baseline.
struct KernelRow {
  const char *Op;
  size_t Width;
  double SimdNs = 0.0;
  double ScalarNs = 0.0;
  double speedup() const { return SimdNs > 0.0 ? ScalarNs / SimdNs : 0.0; }
};

/// Median ns per call of \p Fn over \p Reps timed repetitions; the inner
/// iteration count scales inversely with \p Width so every repetition is
/// tens of microseconds regardless of clock size.
template <typename FnT>
double timeKernelNs(FnT Fn, size_t Width, uint32_t Reps) {
  const size_t Iters = std::max<size_t>(1024, 262144 / std::max<size_t>(
                                                           Width, 1));
  std::vector<double> Ns;
  Ns.reserve(Reps);
  for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    for (size_t I = 0; I < Iters; ++I)
      Fn();
    auto End = std::chrono::steady_clock::now();
    Ns.push_back(std::chrono::duration<double, std::nano>(End - Start)
                     .count() /
                 static_cast<double>(Iters));
  }
  return median(Ns);
}

std::vector<KernelRow> measureKernels(uint32_t Reps) {
  std::vector<KernelRow> Rows;
  for (size_t Width : {size_t{2}, size_t{8}, size_t{64}, size_t{512}}) {
    std::vector<uint32_t> A = kernelWords(Width, 1);
    std::vector<uint32_t> B = kernelWords(Width, 7);
    std::vector<uint32_t> Dst(Width);

    KernelRow Join{"join", Width, 0.0, 0.0};
    Join.SimdNs = timeKernelNs(
        [&] {
          benchmark::DoNotOptimize(
              kernels::joinMax(A.data(), B.data(), Width));
        },
        Width, Reps);
    Join.ScalarNs = timeKernelNs(
        [&] {
          benchmark::DoNotOptimize(naiveJoinMax(A.data(), B.data(), Width));
        },
        Width, Reps);
    Rows.push_back(Join);

    std::vector<uint32_t> Eq = A; // A <= Eq everywhere: full-length scan.
    KernelRow Leq{"leq", Width, 0.0, 0.0};
    Leq.SimdNs = timeKernelNs(
        [&] {
          benchmark::DoNotOptimize(
              kernels::allLeq(A.data(), Eq.data(), Width));
        },
        Width, Reps);
    Leq.ScalarNs = timeKernelNs(
        [&] {
          benchmark::DoNotOptimize(naiveAllLeq(A.data(), Eq.data(), Width));
        },
        Width, Reps);
    Rows.push_back(Leq);

    KernelRow Copy{"copy", Width, 0.0, 0.0};
    Copy.SimdNs = timeKernelNs(
        [&] {
          kernels::copyWords(Dst.data(), B.data(), Width);
          benchmark::DoNotOptimize(Dst.data());
        },
        Width, Reps);
    Copy.ScalarNs = timeKernelNs(
        [&] {
          naiveCopy(Dst.data(), B.data(), Width);
          benchmark::DoNotOptimize(Dst.data());
        },
        Width, Reps);
    Rows.push_back(Copy);
  }

  // Accordion-compaction kernels at compaction-relevant widths: the
  // half-density pack (every second slot survives) and the trailing-zero
  // trim over the vacated upper half.
  for (size_t Width : {size_t{64}, size_t{512}, size_t{4096}}) {
    std::vector<uint32_t> Src = kernelWords(Width, 3);
    std::vector<uint32_t> Dst(Width / 2);
    std::vector<uint32_t> Idx = halfDensityIndex(Width);
    KernelRow Remap{"remap", Width, 0.0, 0.0};
    Remap.SimdNs = timeKernelNs(
        [&] {
          kernels::remapGather(Dst.data(), Src.data(), Idx.data(),
                               Idx.size());
          benchmark::DoNotOptimize(Dst.data());
        },
        Width, Reps);
    Remap.ScalarNs = timeKernelNs(
        [&] {
          naiveRemapGather(Dst.data(), Src.data(), Idx.data(), Idx.size());
          benchmark::DoNotOptimize(Dst.data());
        },
        Width, Reps);
    Rows.push_back(Remap);

    std::vector<uint32_t> Trimmed = halfTrimmedWords(Width);
    KernelRow Trim{"trim", Width, 0.0, 0.0};
    Trim.SimdNs = timeKernelNs(
        [&] {
          benchmark::DoNotOptimize(
              kernels::trimTrailingZeros(Trimmed.data(), Width));
        },
        Width, Reps);
    Trim.ScalarNs = timeKernelNs(
        [&] {
          benchmark::DoNotOptimize(
              naiveTrimTrailingZeros(Trimmed.data(), Width));
        },
        Width, Reps);
    Rows.push_back(Trim);
  }
  return Rows;
}

/// Kernel rows for one forced ISA path, plus the cost of the dispatch
/// indirection itself on that path.
struct IsaSweep {
  kernels::Isa Kind = kernels::Isa::Scalar;
  const char *Name = "scalar";
  /// Median ns/call of the dispatched kernels::joinMax minus the direct
  /// table-pointer call, at width 8 (a typical clock). The amortized cost
  /// of runtime dispatch; target <= 1 ns.
  double DispatchNs = 0.0;
  std::vector<KernelRow> Rows;
};

/// Dispatched-vs-direct joinMax at width 8: what the function-pointer
/// indirection costs per call on the currently forced path.
double measureDispatchOverheadNs(kernels::Isa Kind, uint32_t Reps) {
  const size_t Width = 8;
  std::vector<uint32_t> A = kernelWords(Width, 1);
  std::vector<uint32_t> B = kernelWords(Width, 7);
  const kernels::KernelOps *Ops = kernels::opsFor(Kind);
  double DispatchedNs = timeKernelNs(
      [&] {
        benchmark::DoNotOptimize(kernels::joinMax(A.data(), B.data(), Width));
      },
      Width, Reps);
  double DirectNs = timeKernelNs(
      [&] {
        benchmark::DoNotOptimize(Ops->JoinMax(A.data(), B.data(), Width));
      },
      Width, Reps);
  return DispatchedNs - DirectNs;
}

/// Runs measureKernels under every ISA available on this build/host (the
/// resolved path first), restoring the dispatcher afterwards.
std::vector<IsaSweep> measureIsaSweeps(uint32_t Reps) {
  using kernels::Isa;
  const Isa Resolved = kernels::activeIsaKind();
  std::vector<Isa> Order{Resolved};
  for (Isa Kind : {Isa::Avx2, Isa::Neon, Isa::Sse2, Isa::Scalar})
    if (Kind != Resolved && kernels::isaAvailable(Kind))
      Order.push_back(Kind);
  std::vector<IsaSweep> Sweeps;
  for (Isa Kind : Order) {
    kernels::setForceIsa(Kind);
    IsaSweep Sweep;
    Sweep.Kind = Kind;
    Sweep.Name = kernels::isaName(Kind);
    Sweep.Rows = measureKernels(Reps);
    Sweep.DispatchNs = measureDispatchOverheadNs(Kind, Reps);
    Sweeps.push_back(std::move(Sweep));
  }
  kernels::clearForceIsa();
  return Sweeps;
}

/// One detector's replay measurements over the repetitions.
struct JsonRow {
  std::string Name;
  double EventsPerSecond = 0.0; ///< From the median repetition.
  double P50NsPerEvent = 0.0;
  double P95NsPerEvent = 0.0;
  uint64_t DynamicRaces = 0; ///< Identical across repetitions (same seed).
};

int runJsonMode(int Argc, const char *const *Argv) {
  OptionRegistry R("micro_ops --json [options]");
  R.addFlag("json", "run the JSON summary mode instead of google-benchmark")
      .addString("json-out", "BENCH_micro_ops.json", "JSON output path")
      .addInt("reps", 15, "timed repetitions per detector")
      .addDouble("scale", 1.0, "workload scale factor")
      .addInt("seed", 12345, "trace seed")
      .addString("shards", "1",
                 "variable shards per trial replay: a count; 'auto' = 1");
  if (!R.parse(Argc, Argv))
    return R.helpRequested() ? 0 : 2;
  std::string OutPath = R.getString("json-out");
  auto Reps = static_cast<uint32_t>(R.getInt("reps"));
  double Scale = R.getDouble("scale");
  uint64_t Seed = static_cast<uint64_t>(R.getInt("seed"));
  unsigned Shards = parseShardCount(R.getString("shards"));

  // Kernel rows first: the primitive the detector rows are built on. Every
  // ISA path compiled in and supported by this host is swept via the force
  // override -- the resolved path first -- so one invocation captures both
  // the per-ISA margins and the dispatch indirection cost.
  std::vector<IsaSweep> Sweeps = measureIsaSweeps(Reps);
  for (const IsaSweep &Sweep : Sweeps) {
    std::printf("clock kernels (%s%s):\n", Sweep.Name,
                Sweep.Kind == kernels::activeIsaKind() ? ", resolved" : "");
    for (const KernelRow &Row : Sweep.Rows)
      std::printf("  %-5s w=%-4zu %8.2f ns simd  %8.2f ns scalar  "
                  "x%.2f\n",
                  Row.Op, Row.Width, Row.SimdNs, Row.ScalarNs,
                  Row.speedup());
    std::printf("  dispatch overhead %+.2f ns/call (joinMax w=8, "
                "dispatched vs direct)\n",
                Sweep.DispatchNs);
  }
  const std::vector<KernelRow> &Kernels = Sweeps.front().Rows;

  CompiledWorkload Workload(
      scaleWorkload(mediumTestWorkload(), Scale));
  Trace T = generateTrace(Workload, Seed);
  // One index for the whole run: every detector and repetition shards the
  // same trace the same way, so the build cost amortizes to zero and the
  // timed loops measure pure replay.
  std::optional<TraceIndex> Index;
  if (Shards > 1)
    Index.emplace(TraceIndex::build(T, Shards));

  struct NamedSetup {
    const char *Name;
    DetectorSetup Setup;
  };
  const NamedSetup Setups[] = {
      {"null", nullSetup()},
      {"fasttrack", fastTrackSetup()},
      {"pacer_r0", pacerSetup(0.0)},
      {"pacer_r3", pacerSetup(0.03)},
      {"pacer_r100", pacerSetup(1.0)},
      {"literace", literaceSetup()},
  };

  std::vector<JsonRow> Rows;
  for (const NamedSetup &NS : Setups) {
    std::vector<double> NsPerEvent;
    NsPerEvent.reserve(Reps);
    uint64_t Races = 0;
    DetectorSetup Setup = NS.Setup;
    Setup.Shards = Shards;
    for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
      AnalysisResult Result =
          AnalysisSession(Workload, trialRequest(Setup, Seed))
              .analyzeTrace(T, Index ? &*Index : nullptr);
      Races = Result.DynamicRaces;
      double Seconds = Result.ReplaySeconds;
      NsPerEvent.push_back(T.empty() ? 0.0
                                     : Seconds * 1e9 /
                                           static_cast<double>(T.size()));
    }
    JsonRow Row;
    Row.Name = NS.Name;
    Row.P50NsPerEvent = median(NsPerEvent);
    Row.P95NsPerEvent = quantile(NsPerEvent, 0.95);
    Row.EventsPerSecond =
        Row.P50NsPerEvent > 0.0 ? 1e9 / Row.P50NsPerEvent : 0.0;
    Row.DynamicRaces = Races;
    Rows.push_back(Row);
    std::printf("%-10s %12.0f events/sec  p50 %7.1f ns  p95 %7.1f ns  "
                "races %llu\n",
                Row.Name.c_str(), Row.EventsPerSecond, Row.P50NsPerEvent,
                Row.P95NsPerEvent,
                static_cast<unsigned long long>(Row.DynamicRaces));
  }

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open %s for writing\n", OutPath.c_str());
    return 1;
  }
  // "isa"/"kernels" keep their PR-5 shape (the resolved path) so existing
  // diffs keep working; "isa_sweep" adds every forced path plus the
  // dispatch indirection cost.
  std::fprintf(Out, "{\n  \"workload\": \"%s\",\n  \"events\": %llu,\n"
                    "  \"reps\": %u,\n  \"isa\": \"%s\",\n"
                    "  \"isa_detected\": \"%s\",\n"
                    "  \"kernels\": [\n",
               Workload.spec().Name.c_str(),
               static_cast<unsigned long long>(T.size()), Reps,
               kernels::activeIsa(),
               kernels::isaName(kernels::detectedIsa()));
  auto emitKernelRows = [&](const std::vector<KernelRow> &Rows,
                            const char *Indent) {
    for (size_t I = 0; I != Rows.size(); ++I) {
      const KernelRow &Row = Rows[I];
      std::fprintf(Out,
                   "%s{\"op\": \"%s\", \"width\": %zu, "
                   "\"simd_ns_per_call\": %.2f, \"scalar_ns_per_call\": "
                   "%.2f, \"speedup\": %.2f}%s\n",
                   Indent, Row.Op, Row.Width, Row.SimdNs, Row.ScalarNs,
                   Row.speedup(), I + 1 == Rows.size() ? "" : ",");
    }
  };
  emitKernelRows(Kernels, "    ");
  std::fprintf(Out, "  ],\n  \"isa_sweep\": [\n");
  for (size_t S = 0; S != Sweeps.size(); ++S) {
    const IsaSweep &Sweep = Sweeps[S];
    std::fprintf(Out,
                 "    {\"isa\": \"%s\", \"dispatch_ns_per_call\": %.2f, "
                 "\"kernels\": [\n",
                 Sweep.Name, Sweep.DispatchNs);
    emitKernelRows(Sweep.Rows, "      ");
    std::fprintf(Out, "    ]}%s\n", S + 1 == Sweeps.size() ? "" : ",");
  }
  std::fprintf(Out, "  ],\n  \"detectors\": [\n");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const JsonRow &Row = Rows[I];
    std::fprintf(Out,
                 "    {\"name\": \"%s\", \"events_per_sec\": %.1f, "
                 "\"p50_ns_per_event\": %.2f, \"p95_ns_per_event\": %.2f, "
                 "\"dynamic_races\": %llu}%s\n",
                 Row.Name.c_str(), Row.EventsPerSecond, Row.P50NsPerEvent,
                 Row.P95NsPerEvent,
                 static_cast<unsigned long long>(Row.DynamicRaces),
                 I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::string(Argv[I]) == "--json" ||
        std::string(Argv[I]).rfind("--json=", 0) == 0 ||
        std::string(Argv[I]).rfind("--json-out", 0) == 0)
      return runJsonMode(Argc, Argv);
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
