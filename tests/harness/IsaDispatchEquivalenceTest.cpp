//===- tests/harness/IsaDispatchEquivalenceTest.cpp -----------------------==//
//
// Runtime-dispatch equivalence: every ISA path the dispatcher can select
// on this build/host must be bit-identical to the scalar reference -- at
// the kernel level (randomized differential tests per forced path) and
// end to end (exact AnalysisResult equality for all four detectors, shards
// {1, 4}, under each forced path). Plus the force/override API semantics
// the PACER_FORCE_ISA machinery is built on.
//
// On an AVX2 host this exercises avx2, sse2, and scalar through ONE
// binary; on a scalar-only build (PACER_DISABLE_SIMD) the available set
// collapses to {scalar} and the suite degenerates to self-comparison,
// which keeps the CI leg green by construction.
//
//===----------------------------------------------------------------------===//

#include "core/ClockKernels.h"
#include "runtime/AnalysisSession.h"
#include "sim/Workloads.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace pacer;
using kernels::Isa;

namespace {

/// Every ISA setForceIsa can succeed for here, scalar always included.
std::vector<Isa> availableIsas() {
  std::vector<Isa> Out;
  for (Isa Kind :
       {Isa::Scalar, Isa::Sse2, Isa::Neon, Isa::Avx2, Isa::Avx512})
    if (kernels::isaAvailable(Kind))
      Out.push_back(Kind);
  return Out;
}

class IsaDispatchEquivalenceTest : public ::testing::Test {
protected:
  void TearDown() override { kernels::clearForceIsa(); }
};

//===----------------------------------------------------------------------===//
// Force/override API semantics
//===----------------------------------------------------------------------===//

TEST_F(IsaDispatchEquivalenceTest, ForcedPathIsReportedAsResolved) {
  for (Isa Kind : availableIsas()) {
    ASSERT_TRUE(kernels::setForceIsa(Kind));
    EXPECT_EQ(kernels::activeIsaKind(), Kind);
    EXPECT_STREQ(kernels::activeIsa(), kernels::isaName(Kind));
  }
  kernels::clearForceIsa();
  // clearForceIsa restores the env-or-best default, which must itself be
  // an available path.
  EXPECT_TRUE(kernels::isaAvailable(kernels::activeIsaKind()));
}

TEST_F(IsaDispatchEquivalenceTest, UnavailableIsaIsRefusedUnchanged) {
  // NEON and AVX2 never coexist, so at least one of them is unavailable
  // on every host; scalar-only builds refuse both.
  Isa Unavailable =
      kernels::isaAvailable(Isa::Neon) ? Isa::Avx2 : Isa::Neon;
  ASSERT_FALSE(kernels::isaAvailable(Unavailable));
  Isa Before = kernels::activeIsaKind();
  EXPECT_FALSE(kernels::setForceIsa(Unavailable));
  EXPECT_EQ(kernels::activeIsaKind(), Before);
}

TEST_F(IsaDispatchEquivalenceTest, ScalarForceWrapperStillWorks) {
  kernels::setForceScalarForTest(true);
  EXPECT_STREQ(kernels::activeIsa(), "scalar");
  kernels::setForceScalarForTest(false);
  EXPECT_TRUE(kernels::isaAvailable(kernels::activeIsaKind()));
}

TEST_F(IsaDispatchEquivalenceTest, IsaNamesRoundTrip) {
  for (Isa Kind :
       {Isa::Scalar, Isa::Sse2, Isa::Neon, Isa::Avx2, Isa::Avx512}) {
    Isa Parsed = Isa::Scalar;
    ASSERT_TRUE(kernels::parseIsaName(kernels::isaName(Kind), Parsed));
    EXPECT_EQ(Parsed, Kind);
  }
  Isa Sink = Isa::Scalar;
  EXPECT_FALSE(kernels::parseIsaName("avx-512", Sink));
  EXPECT_FALSE(kernels::parseIsaName("", Sink));
  EXPECT_FALSE(kernels::parseIsaName("AVX2", Sink)); // Lowercase only.
}

TEST_F(IsaDispatchEquivalenceTest, OpsTableMatchesAvailability) {
  // Scalar ops are always compiled in; every available ISA has a table
  // whose identity matches.
  ASSERT_NE(kernels::opsFor(Isa::Scalar), nullptr);
  for (Isa Kind : availableIsas()) {
    const kernels::KernelOps *Ops = kernels::opsFor(Kind);
    ASSERT_NE(Ops, nullptr);
    EXPECT_EQ(Ops->Kind, Kind);
    EXPECT_STREQ(Ops->Name, kernels::isaName(Kind));
  }
}

//===----------------------------------------------------------------------===//
// Randomized differential kernel tests per forced path
//===----------------------------------------------------------------------===//

TEST_F(IsaDispatchEquivalenceTest, KernelsMatchScalarReferencePerPath) {
  std::mt19937 Rng(0x15a0d15u);
  // Zero-heavy values exercise the trim/allZero boundaries; lengths
  // straddle every vector width and tail shape.
  std::uniform_int_distribution<uint32_t> Value(0, 12);
  std::uniform_int_distribution<size_t> Length(0, 67);
  for (Isa Kind : availableIsas()) {
    ASSERT_TRUE(kernels::setForceIsa(Kind));
    SCOPED_TRACE(std::string("forced isa ") + kernels::isaName(Kind));
    for (int Round = 0; Round != 200; ++Round) {
      const size_t N = Length(Rng);
      std::vector<uint32_t> A(N), B(N);
      for (size_t I = 0; I != N; ++I) {
        A[I] = Value(Rng);
        B[I] = Value(Rng);
      }

      std::vector<uint32_t> JoinDispatched = A, JoinRef = A;
      bool ChangedDispatched =
          kernels::joinMax(JoinDispatched.data(), B.data(), N);
      bool ChangedRef = kernels::scalarJoinMax(JoinRef.data(), B.data(), N);
      EXPECT_EQ(JoinDispatched, JoinRef);
      EXPECT_EQ(ChangedDispatched, ChangedRef);

      EXPECT_EQ(kernels::allLeq(A.data(), B.data(), N),
                kernels::scalarAllLeq(A.data(), B.data(), N));
      EXPECT_EQ(kernels::allZero(A.data(), N),
                kernels::scalarAllZero(A.data(), N));
      EXPECT_EQ(kernels::trimTrailingZeros(A.data(), N),
                kernels::scalarTrimTrailingZeros(A.data(), N));

      // Strictly ascending Idx with Idx[i] >= i: the legal in-place pack.
      std::vector<uint32_t> Idx;
      for (size_t I = 0; I != N; ++I)
        if (Rng() % 2)
          Idx.push_back(static_cast<uint32_t>(I));
      std::vector<uint32_t> GatherDispatched(Idx.size()),
          GatherRef(Idx.size());
      kernels::remapGather(GatherDispatched.data(), A.data(), Idx.data(),
                           Idx.size());
      kernels::scalarRemapGather(GatherRef.data(), A.data(), Idx.data(),
                                 Idx.size());
      EXPECT_EQ(GatherDispatched, GatherRef);

      std::vector<uint32_t> InPlace = A;
      kernels::remapGather(InPlace.data(), InPlace.data(), Idx.data(),
                           Idx.size());
      InPlace.resize(Idx.size());
      EXPECT_EQ(InPlace, GatherRef);
    }
  }
}

//===----------------------------------------------------------------------===//
// End-to-end AnalysisResult equality per forced path
//===----------------------------------------------------------------------===//

void expectSameStats(const DetectorStats &A, const DetectorStats &B) {
  EXPECT_EQ(A.SlowJoinsSampling, B.SlowJoinsSampling);
  EXPECT_EQ(A.FastJoinsSampling, B.FastJoinsSampling);
  EXPECT_EQ(A.SlowJoinsNonSampling, B.SlowJoinsNonSampling);
  EXPECT_EQ(A.FastJoinsNonSampling, B.FastJoinsNonSampling);
  EXPECT_EQ(A.DeepCopiesSampling, B.DeepCopiesSampling);
  EXPECT_EQ(A.ShallowCopiesSampling, B.ShallowCopiesSampling);
  EXPECT_EQ(A.DeepCopiesNonSampling, B.DeepCopiesNonSampling);
  EXPECT_EQ(A.ShallowCopiesNonSampling, B.ShallowCopiesNonSampling);
  EXPECT_EQ(A.ReadSlowSampling, B.ReadSlowSampling);
  EXPECT_EQ(A.ReadSlowNonSampling, B.ReadSlowNonSampling);
  EXPECT_EQ(A.ReadFastNonSampling, B.ReadFastNonSampling);
  EXPECT_EQ(A.WriteSlowSampling, B.WriteSlowSampling);
  EXPECT_EQ(A.WriteSlowNonSampling, B.WriteSlowNonSampling);
  EXPECT_EQ(A.WriteFastNonSampling, B.WriteFastNonSampling);
  EXPECT_EQ(A.RacesReported, B.RacesReported);
  EXPECT_EQ(A.SyncOps, B.SyncOps);
  EXPECT_EQ(A.ClockClones, B.ClockClones);
}

void expectSameResult(const AnalysisResult &A, const AnalysisResult &B) {
  ASSERT_EQ(A.Races.size(), B.Races.size());
  for (const auto &[Key, Count] : A.Races) {
    auto It = B.Races.find(Key);
    ASSERT_TRUE(It != B.Races.end()) << "race key missing in scalar run";
    EXPECT_EQ(Count, It->second);
  }
  EXPECT_EQ(A.DynamicRaces, B.DynamicRaces);
  expectSameStats(A.Stats, B.Stats);
  EXPECT_EQ(A.EffectiveAccessRate, B.EffectiveAccessRate);
  EXPECT_EQ(A.EffectiveSyncRate, B.EffectiveSyncRate);
  EXPECT_EQ(A.LiteRaceEffectiveRate, B.LiteRaceEffectiveRate);
  EXPECT_EQ(A.Boundaries, B.Boundaries);
  EXPECT_EQ(A.TraceEvents, B.TraceEvents);
  EXPECT_EQ(A.FinalMetadataBytes, B.FinalMetadataBytes);
}

TEST_F(IsaDispatchEquivalenceTest, TrialResultsBitIdenticalAcrossPaths) {
  DetectorSetup PacerSampled = pacerSetup(0.03);
  PacerSampled.Sampling.PeriodBytes = 12 * 1024; // Many period boundaries.
  const struct {
    const char *Name;
    DetectorSetup Setup;
  } Setups[] = {{"pacer_r3", PacerSampled},
                {"fasttrack", fastTrackSetup()},
                {"generic", genericSetup()},
                {"literace", literaceSetup()}};

  CompiledWorkload Workload(mediumTestWorkload());
  const uint64_t Seed = 31;
  for (const auto &NS : Setups) {
    for (unsigned Shards : {1u, 4u}) {
      DetectorSetup Setup = NS.Setup;
      Setup.Shards = Shards;
      AnalysisSession Session(Workload, trialRequest(Setup, Seed));
      ASSERT_TRUE(kernels::setForceIsa(Isa::Scalar));
      AnalysisResult Reference = Session.analyzeGenerated();
      for (Isa Kind : availableIsas()) {
        if (Kind == Isa::Scalar)
          continue;
        ASSERT_TRUE(kernels::setForceIsa(Kind));
        AnalysisResult Forced = Session.analyzeGenerated();
        kernels::clearForceIsa();
        SCOPED_TRACE(std::string(NS.Name) + " shards=" +
                     std::to_string(Shards) + " isa=" +
                     kernels::isaName(Kind));
        expectSameResult(Forced, Reference);
      }
    }
  }
}

} // namespace
