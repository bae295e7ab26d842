//===- tests/detectors/AllocationGuardTest.cpp ----------------------------==//
//
// Verifies that a warm access batch allocates nothing: once a detector's
// tables are sized -- variable tables, read-map entry arrays, spilled
// clocks -- replaying the same accesses again reuses that storage and
// performs ZERO general-purpose heap allocations. The guard is a global
// operator new/delete replacement that counts every heap allocation in
// the process; the measured window contains only accessBatch calls.
//
//===----------------------------------------------------------------------===//

#include "detectors/FastTrackDetector.h"
#include "detectors/GenericDetector.h"
#include "detectors/LiteRaceDetector.h"
#include "detectors/PacerDetector.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> HeapAllocCount{0};
} // namespace

// Global replacements with external linkage: every operator-new in the
// test binary (detectors, gtest, the standard library) routes through
// these counters. Only this translation unit may define them.
void *operator new(std::size_t Size) {
  HeapAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  std::abort(); // -fno-exceptions: cannot throw bad_alloc.
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace pacer;
using namespace pacer::test;

namespace {

// A trace whose accesses exercise spilled state: more threads than the
// VectorClock SSO width would be sync-heavy, so instead many variables
// with cross-thread sharing inflate read maps and grow the var tables.
Trace accessHeavyTrace() {
  TraceBuilder B;
  constexpr uint32_t Threads = 8;
  constexpr uint32_t Vars = 64;
  for (uint32_t T = 0; T < Threads; ++T)
    for (uint32_t V = 0; V < Vars; ++V)
      B.read(T, V);
  for (uint32_t T = 0; T < Threads; ++T)
    for (uint32_t V = 0; V < Vars; ++V)
      if ((V % Threads) == T)
        B.write(T, V);
  return B.take();
}

// Replays sync-free warmup passes, then measures heap allocations across
// one more identical accessBatch window.
uint64_t heapAllocsInWarmWindow(Detector &D, const Trace &T) {
  for (uint32_t Tid = 0; Tid < 8; ++Tid)
    D.threadBegin(Tid);
  std::span<const Action> Accesses(T);
  // Two warm passes: the first sizes every table, the second confirms the
  // sizes are stable before the counted pass.
  D.accessBatch(Accesses, AccessShard::all());
  D.accessBatch(Accesses, AccessShard::all());
  uint64_t Before = HeapAllocCount.load(std::memory_order_relaxed);
  D.accessBatch(Accesses, AccessShard::all());
  return HeapAllocCount.load(std::memory_order_relaxed) - Before;
}

TEST(AllocationGuardTest, CountersSeeThisTestsOwnAllocations) {
  // Sanity: the replacement really is installed.
  uint64_t Before = HeapAllocCount.load(std::memory_order_relaxed);
  auto *P = new int(42);
  EXPECT_GT(HeapAllocCount.load(std::memory_order_relaxed), Before);
  delete P;
}

TEST(AllocationGuardTest, FastTrackAccessPathIsHeapFree) {
  Trace T = accessHeavyTrace();
  NullRaceSink Sink; // Race storage would allocate; count the detector only.
  FastTrackDetector D(Sink);
  EXPECT_EQ(heapAllocsInWarmWindow(D, T), 0u);
}

TEST(AllocationGuardTest, GenericAccessPathIsHeapFree) {
  Trace T = accessHeavyTrace();
  NullRaceSink Sink; // Race storage would allocate; count the detector only.
  GenericDetector D(Sink);
  EXPECT_EQ(heapAllocsInWarmWindow(D, T), 0u);
}

TEST(AllocationGuardTest, PacerSamplingAccessPathIsHeapFree) {
  Trace T = accessHeavyTrace();
  NullRaceSink Sink; // Race storage would allocate; count the detector only.
  PacerDetector D(Sink);
  D.beginSamplingPeriod(); // Sampling on: the full FastTrack-style path.
  EXPECT_EQ(heapAllocsInWarmWindow(D, T), 0u);
}

TEST(AllocationGuardTest, PacerNonSamplingFastPathIsHeapFree) {
  Trace T = accessHeavyTrace();
  NullRaceSink Sink; // Race storage would allocate; count the detector only.
  PacerDetector D(Sink);
  // Never sampling: the inlined fast path must allocate nothing at all,
  // warm or cold.
  uint64_t Before = HeapAllocCount.load(std::memory_order_relaxed);
  D.accessBatch(std::span<const Action>(T), AccessShard::all());
  EXPECT_EQ(HeapAllocCount.load(std::memory_order_relaxed) - Before, 0u);
}

TEST(AllocationGuardTest, LiteRaceAccessPathIsHeapFree) {
  Trace T = accessHeavyTrace();
  NullRaceSink Sink; // Race storage would allocate; count the detector only.
  LiteRaceDetector D(Sink, /*SiteToMethod=*/{}, /*Seed=*/7);
  EXPECT_EQ(heapAllocsInWarmWindow(D, T), 0u);
}

} // namespace
