//===- tests/support/ArenaTest.cpp ----------------------------------------==//
//
// The detector-metadata arena: slab reuse, size-class recycling, the
// thread binding, and the headered free-from-anywhere contract the
// detectors' destruction order relies on.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace pacer;

namespace {

TEST(ArenaTest, AllocateCarvesFromSlabs) {
  Arena A;
  void *P1 = A.allocate(32);
  void *P2 = A.allocate(32);
  ASSERT_NE(P1, nullptr);
  ASSERT_NE(P2, nullptr);
  EXPECT_NE(P1, P2);
  // Blocks are writable and 16-aligned (the header keeps payloads
  // aligned for the SIMD kernels' unaligned-load tolerance tests).
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P1) % 16, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P2) % 16, 0u);
  std::memset(P1, 0xab, 32);
  std::memset(P2, 0xcd, 32);
  EXPECT_EQ(A.slabAllocations(), 1u); // Both fit the first slab.
  Arena::freeBlock(P2);
  Arena::freeBlock(P1);
}

TEST(ArenaTest, FreeListRecyclesSameClass) {
  Arena A;
  void *P = A.allocate(64);
  Arena::freeBlock(P);
  // Same size class: the freed block must come back, not fresh slab space.
  void *Q = A.allocate(64);
  EXPECT_EQ(P, Q);
  Arena::freeBlock(Q);
  uint64_t Slabs = A.slabAllocations();
  // A long alloc/free cycle must not grow the slab footprint.
  for (int I = 0; I < 10000; ++I)
    Arena::freeBlock(A.allocate(64));
  EXPECT_EQ(A.slabAllocations(), Slabs);
}

TEST(ArenaTest, OversizeBlocksGetDedicatedSlabs) {
  Arena A;
  size_t Big = size_t(1) << 20; // Larger than the default slab.
  void *P = A.allocate(Big);
  ASSERT_NE(P, nullptr);
  std::memset(P, 0x5a, Big);
  EXPECT_GE(A.slabBytes(), Big);
  Arena::freeBlock(P);
  // Recycled through the free list, like any other class.
  EXPECT_EQ(A.allocate(Big), P);
}

TEST(ArenaTest, ScopeBindsAndNests) {
  EXPECT_EQ(Arena::current(), nullptr);
  Arena Outer, Inner;
  {
    Arena::Scope S1(&Outer);
    EXPECT_EQ(Arena::current(), &Outer);
    {
      Arena::Scope S2(&Inner);
      EXPECT_EQ(Arena::current(), &Inner);
      void *P = Arena::allocBlock(24);
      EXPECT_GT(Inner.blockAllocations(), 0u);
      EXPECT_EQ(Outer.blockAllocations(), 0u);
      Arena::freeBlock(P);
    }
    EXPECT_EQ(Arena::current(), &Outer);
    {
      Arena::Scope S3(nullptr); // Explicitly unbound.
      EXPECT_EQ(Arena::current(), nullptr);
    }
    EXPECT_EQ(Arena::current(), &Outer);
  }
  EXPECT_EQ(Arena::current(), nullptr);
}

TEST(ArenaTest, UnboundAllocBlockFallsBackToHeap) {
  ASSERT_EQ(Arena::current(), nullptr);
  void *P = Arena::allocBlock(40);
  ASSERT_NE(P, nullptr);
  std::memset(P, 0x11, 40);
  Arena::freeBlock(P); // Header dispatch: plain heap free, no arena.
}

TEST(ArenaTest, BlocksFreeFromAnyContext) {
  // A block allocated under one binding must free correctly while a
  // *different* arena (or none) is bound -- this is what detector member
  // destructors do.
  Arena A, B;
  void *P;
  {
    Arena::Scope SA(&A);
    P = Arena::allocBlock(64);
  }
  {
    Arena::Scope SB(&B);
    Arena::freeBlock(P); // Routed to A via the header, not to B.
  }
  {
    Arena::Scope SA(&A);
    EXPECT_EQ(Arena::allocBlock(64), P); // A's free list has it.
  }
}

TEST(ArenaTest, ResetKeepsSlabsAndRecyclesEverything) {
  Arena A;
  std::vector<void *> Blocks;
  for (int I = 0; I < 100; ++I)
    Blocks.push_back(A.allocate(128));
  size_t Footprint = A.slabBytes();
  uint64_t Slabs = A.slabAllocations();
  A.reset(); // All 100 blocks are dead: reset is legal.
  EXPECT_EQ(A.slabBytes(), Footprint);
  // The same demand is now served entirely from recycled slab space.
  for (int I = 0; I < 100; ++I)
    ASSERT_NE(A.allocate(128), nullptr);
  EXPECT_EQ(A.slabAllocations(), Slabs);
}

TEST(ArenaTest, ArenaAllocatorVectorUsesBoundArena) {
  Arena A;
  {
    Arena::Scope S(&A);
    std::vector<int, ArenaAllocator<int>> V;
    for (int I = 0; I < 1000; ++I)
      V.push_back(I);
    EXPECT_GT(A.blockAllocations(), 0u);
    for (int I = 0; I < 1000; ++I)
      ASSERT_EQ(V[I], I);
  } // V destroyed inside the scope; blocks return to A.
}

TEST(ArenaTest, ArenaAllocatorVectorOutlivesScope) {
  // The detector pattern: the container is destroyed after the entry
  // point's scope ended (during ~Detector), with the arena still alive.
  Arena A;
  {
    std::vector<int, ArenaAllocator<int>> V;
    {
      Arena::Scope S(&A);
      V.assign(512, 7);
    }
    EXPECT_EQ(V.size(), 512u);
    EXPECT_EQ(V[511], 7);
  } // Destruction happens unbound; header routes the block back to A.
  void *P = A.allocate(512 * sizeof(int));
  EXPECT_NE(P, nullptr); // Arena still coherent.
  Arena::freeBlock(P);
}

} // namespace
