//===- support/Arena.h - Detector metadata arena ---------------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-detector-replica slab allocator for access-path metadata: spilled
/// wide vector clocks, ReadMap entry arrays, FlatVarTable slot arrays, and
/// the dense per-variable tables. Each detector owns one Arena and binds
/// it to the current thread (Arena::Scope) for the duration of every
/// entry point; allocations inside the scope carve from the arena's slabs
/// instead of the general-purpose heap, so the access hot path performs
/// zero malloc/free once the slabs and size-class free lists are warm.
///
/// Blocks are headered: each carries the owning arena (null for the
/// global-heap fallback used when no arena is bound) and its size class,
/// so a block may be freed from *any* context -- including detector
/// member destruction, where the members' blocks dispatch back into the
/// arena via their headers. For that to be safe the Arena must be
/// declared as the detector's FIRST data member, so it is destroyed LAST.
///
/// Size-class free lists (powers of two, >= 16 bytes) recycle freed
/// blocks; a pure bump pointer would leak under FlatVarTable's grow/shrink
/// oscillation across sampling periods. reset() recycles every block at
/// once while keeping the slabs -- legal only when no live block from
/// this arena remains (see DESIGN.md section 6f for the lifetime rules).
///
/// An Arena is single-threaded: exactly one thread may allocate from or
/// free into it at a time. Sharded replay satisfies this trivially (one
/// replica = one detector = one worker at a time).
///
//===----------------------------------------------------------------------===//

#ifndef PACER_SUPPORT_ARENA_H
#define PACER_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pacer {

/// Slab-backed block allocator with power-of-two free lists.
class Arena {
public:
  Arena() = default;
  ~Arena();
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Allocates a block of at least \p Bytes from this arena.
  void *allocate(size_t Bytes);

  /// Recycles every block at once, keeping the slabs for reuse. Legal
  /// only when no live block from this arena remains.
  void reset();

  /// Total bytes of slab memory owned (the arena's heap footprint).
  size_t slabBytes() const { return SlabBytesTotal; }

  /// Blocks handed out over the arena's lifetime (test/diagnostic hook).
  uint64_t blockAllocations() const { return BlockAllocs; }

  /// Slab allocations over the lifetime: how often the arena itself had
  /// to touch the general-purpose heap (test/diagnostic hook).
  uint64_t slabAllocations() const { return SlabAllocs; }

  /// The arena bound to the current thread (null if none).
  static Arena *current();

  /// Allocates a block of at least \p Bytes from the current thread's
  /// bound arena, falling back to the global heap when none is bound
  /// (e.g. detector objects used directly in tests). The block is
  /// headered: freeBlock() routes it back to wherever it came from.
  static void *allocBlock(size_t Bytes);

  /// Frees a block from allocBlock()/allocate(), from any context.
  /// Null is ignored.
  static void freeBlock(void *Ptr);

  /// RAII binding of an arena to the current thread; nests (restores the
  /// previous binding on destruction). Pass null to run unbound.
  class Scope {
  public:
    explicit Scope(Arena *A);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Arena *Prev;
  };

private:
  /// Precedes every block payload; 16 bytes keeps payloads 16-aligned.
  struct BlockHeader {
    Arena *Owner;   // Null: global-heap fallback block.
    uint64_t Class; // log2 of the payload size.
  };

  static constexpr size_t MinBlockBytes = 16; // Holds a free-list link.
  static constexpr size_t NumClasses = 48;
  static constexpr size_t DefaultSlabBytes = size_t(64) << 10;

  static size_t classOf(size_t Bytes);

  /// Bump-allocates \p TotalBytes (header included) of 16-aligned slab
  /// space, appending a new slab when the current ones are exhausted.
  void *carve(size_t TotalBytes);

  struct Slab {
    char *Base = nullptr;
    size_t Bytes = 0;
  };

  std::vector<Slab> Slabs;
  size_t CurSlab = 0;   // Slab currently bumping.
  size_t CurOffset = 0; // Bump offset within it.
  void *FreeLists[NumClasses] = {};
  size_t SlabBytesTotal = 0;
  uint64_t BlockAllocs = 0;
  uint64_t SlabAllocs = 0;
};

/// Stateless std-compatible allocator that routes through the current
/// thread's bound arena (Arena::allocBlock/freeBlock). Lets the detectors'
/// dense per-variable vectors live in the arena with no allocator
/// plumbing: the binding is ambient, so default-constructed containers and
/// nested vectors all land in the right arena automatically.
template <typename T> struct ArenaAllocator {
  using value_type = T;

  ArenaAllocator() = default;
  template <typename U> ArenaAllocator(const ArenaAllocator<U> &) noexcept {}

  T *allocate(size_t N) {
    return static_cast<T *>(Arena::allocBlock(N * sizeof(T)));
  }
  void deallocate(T *P, size_t) noexcept { Arena::freeBlock(P); }

  friend bool operator==(const ArenaAllocator &, const ArenaAllocator &) {
    return true;
  }
};

} // namespace pacer

#endif // PACER_SUPPORT_ARENA_H
