//===- core/FlatVarTable.h - Open-addressing variable table ----*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-addressing hash table mapping dense VarIds to per-variable
/// detector metadata. This is the PACER detector's hot-path structure: the
/// inlined read/write fast path is "flag test plus table lookup miss"
/// (Section 4), so lookup cost is per-event cost. Compared to
/// std::unordered_map (chained nodes, one heap allocation and one pointer
/// chase per entry), a flat table probes a contiguous power-of-two slot
/// array with linear probing and a Fibonacci-multiplicative hash: misses
/// usually resolve in a single cache line, and erasure (PACER discards
/// metadata continuously during non-sampling periods) writes a tombstone
/// instead of touching the allocator.
///
/// Capacity is allocated lazily: an empty table owns no heap memory,
/// matching PACER's space story where an idle detector charges nothing.
/// The slot array is a raw block from the current thread's bound Arena
/// (slots are placement-constructed and destroyed explicitly), so the
/// grow/shrink oscillation PACER's sampling churn induces recycles blocks
/// through the arena's size-class free lists instead of malloc.
///
/// The key type defaults to VarId but may be any unsigned integer (the
/// LiteRace sampler table keys by a 64-bit method/thread pair). Keys must
/// not be the top two values of the key type (the empty and tombstone
/// sentinels); variable ids are dense from zero, so those are never
/// legitimate.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_CORE_FLATVARTABLE_H
#define PACER_CORE_FLATVARTABLE_H

#include "core/Ids.h"
#include "support/Arena.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace pacer {

/// Open-addressing KeyT -> ValueT map with tombstone deletion.
/// ValueT must be default-constructible and movable; KeyT must be an
/// unsigned integer type.
template <typename ValueT, typename KeyT = VarId> class FlatVarTable {
  static_assert(std::is_unsigned_v<KeyT>, "keys must be unsigned integers");
  static constexpr KeyT EmptyKey = static_cast<KeyT>(-1);
  static constexpr KeyT TombstoneKey = EmptyKey - 1;
  static constexpr size_t MinCapacity = 16;

  struct Slot {
    KeyT Key = EmptyKey;
    ValueT Value{};
  };

public:
  FlatVarTable() = default;
  FlatVarTable(const FlatVarTable &) = delete;
  FlatVarTable &operator=(const FlatVarTable &) = delete;
  ~FlatVarTable() { destroySlots(Slots, Capacity); }

  /// Number of live entries.
  size_t size() const { return Live; }
  bool empty() const { return Live == 0; }

  /// Returns the value stored under \p Key, or null. The pointer is
  /// invalidated by the next insertion.
  ValueT *find(KeyT Key) {
    Slot *S = findSlot(Key);
    return S ? &S->Value : nullptr;
  }

  /// Hints the cache to pull in the first probe line for \p Key. A
  /// find(Key) issued a few probes later then usually resolves without a
  /// memory stall; the PACER cold batch kernel issues these while staging
  /// the next block of accesses. Probe chains longer than one line still
  /// pay for their tail -- the hint covers the common single-line case.
  void prefetch(KeyT Key) const {
    if (!Slots)
      return;
    const char *P = reinterpret_cast<const char *>(&Slots[slotFor(Key)]);
    __builtin_prefetch(P);
    // Pull the slot's tail line too when the entry straddles a cache-line
    // boundary; otherwise the analysis that follows the probe still
    // stalls on the second half of the value.
    if ((reinterpret_cast<uintptr_t>(P) & 63) + sizeof(Slot) > 64)
      __builtin_prefetch(P + sizeof(Slot) - 1);
  }
  const ValueT *find(KeyT Key) const {
    return const_cast<FlatVarTable *>(this)->find(Key);
  }

  /// Returns the value under \p Key, default-constructing it if absent.
  /// May rehash; any previously returned pointer is invalidated.
  ValueT &getOrInsert(KeyT Key) {
    assert(Key < TombstoneKey && "key collides with a sentinel");
    if ((Used + 1) * 4 >= Capacity * 3)
      rehash();
    size_t Mask = Capacity - 1;
    size_t I = slotFor(Key);
    size_t FirstTombstone = Capacity; // Sentinel: none seen.
    while (true) {
      Slot &S = Slots[I];
      if (S.Key == Key)
        return S.Value;
      if (S.Key == EmptyKey) {
        // Reuse the first tombstone on the probe path, keeping chains
        // short under PACER's continuous discard/re-insert churn.
        Slot &Target =
            FirstTombstone != Capacity ? Slots[FirstTombstone] : S;
        if (Target.Key != EmptyKey)
          --Tombstones;
        else
          ++Used;
        Target.Key = Key;
        Target.Value = ValueT{};
        ++Live;
        return Target.Value;
      }
      if (S.Key == TombstoneKey && FirstTombstone == Capacity)
        FirstTombstone = I;
      I = (I + 1) & Mask;
    }
  }

  /// Removes \p Key if present. Returns true if an entry was removed.
  /// May shrink the slot array (invalidating pointers) once occupancy
  /// falls far enough; PACER discards metadata wholesale during
  /// non-sampling periods and the space must actually come back.
  bool erase(KeyT Key) {
    Slot *S = findSlot(Key);
    if (!S)
      return false;
    S->Key = TombstoneKey;
    S->Value = ValueT{};
    --Live;
    ++Tombstones;
    maybeShrink();
    return true;
  }

  /// Drops every entry, keeping the slot array.
  void clear() {
    for (size_t I = 0; I < Capacity; ++I) {
      Slots[I].Key = EmptyKey;
      Slots[I].Value = ValueT{};
    }
    Live = 0;
    Used = 0;
    Tombstones = 0;
  }

  /// Invokes Fn(KeyT, const ValueT &) for every live entry, in slot
  /// (not key) order.
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t I = 0; I < Capacity; ++I)
      if (isLiveSlot(Slots[I]))
        Fn(Slots[I].Key, Slots[I].Value);
  }

  /// Invokes Fn(KeyT, ValueT &) for every live entry; entries for which
  /// Fn returns true are erased. Safe against mutation of the visited
  /// value; must not insert during iteration.
  template <typename FnT> void eraseIf(FnT Fn) {
    for (size_t I = 0; I < Capacity; ++I) {
      Slot &S = Slots[I];
      if (isLiveSlot(S) && Fn(S.Key, S.Value)) {
        S.Key = TombstoneKey;
        S.Value = ValueT{};
        --Live;
        ++Tombstones;
      }
    }
    maybeShrink();
  }

  /// Heap bytes owned by the slot array (the space model adds per-entry
  /// payload bytes separately).
  size_t heapBytes() const { return Capacity * sizeof(Slot); }

  /// Bytes attributable to the live entries alone, independent of table
  /// capacity. Unlike heapBytes() this is additive across any partition
  /// of the keys, which the sharded-replay space merge relies on.
  size_t entryBytes() const { return Live * sizeof(Slot); }

private:
  /// First probe slot for \p Key at the current capacity. Fibonacci
  /// multiplicative hashing is only well-behaved when the slot index is
  /// taken from the TOP bits of the product: shifting by
  /// 64 - log2(Capacity) makes dense sequential ids walk the table as a
  /// golden-ratio Weyl sequence, whose points are spread as evenly as the
  /// occupancy allows (nearly every key sits in its home slot, so most
  /// probes touch one slot). Masking low bits of
  /// the product instead yields a Weyl step with poor continued-fraction
  /// structure at larger capacities -- home slots caravan into multi-slot
  /// clusters and most probes chain. (For 64-bit keys the multiply wraps;
  /// the top bits are still well mixed.)
  size_t slotFor(KeyT Key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(Key) * 0x9e3779b97f4a7c15ULL) >> Shift);
  }

  bool isLiveSlot(const Slot &S) const {
    return S.Key != EmptyKey && S.Key != TombstoneKey;
  }

  /// Allocates and default-constructs a slot array from the bound arena.
  static Slot *allocSlots(size_t N) {
    auto *Out = static_cast<Slot *>(Arena::allocBlock(N * sizeof(Slot)));
    for (size_t I = 0; I < N; ++I)
      new (&Out[I]) Slot();
    return Out;
  }

  /// Destroys the slots and returns the block to its arena.
  static void destroySlots(Slot *S, size_t N) {
    for (size_t I = 0; I < N; ++I)
      S[I].~Slot();
    Arena::freeBlock(S);
  }

  /// Shrinks the slot array when occupancy drops to <= 1/8, releasing the
  /// space a mass discard freed. Never shrinks below MinCapacity: the
  /// non-sampling discard path oscillates between empty and a few entries,
  /// and a floor keeps that oscillation allocation-free.
  void maybeShrink() {
    if (Capacity > MinCapacity && Live * 8 <= Capacity)
      rehash();
  }

  Slot *findSlot(KeyT Key) const {
    if (Live == 0)
      return nullptr;
    size_t Mask = Capacity - 1;
    size_t I = slotFor(Key);
    while (true) {
      Slot &S = Slots[I];
      if (S.Key == Key)
        return &S;
      if (S.Key == EmptyKey)
        return nullptr;
      I = (I + 1) & Mask;
    }
  }

  /// Reallocates to a capacity sized for the live count (shedding
  /// tombstones) and reinserts every live entry.
  void rehash() {
    size_t NewCapacity = MinCapacity;
    while (NewCapacity * 3 < (Live + 1) * 8) // Target load <= 3/8.
      NewCapacity *= 2;
    Slot *OldSlots = Slots;
    size_t OldCapacity = Capacity;
    Slots = allocSlots(NewCapacity);
    Capacity = NewCapacity;
    Shift = 64 - static_cast<unsigned>(__builtin_ctzll(NewCapacity));
    Used = Live;
    Tombstones = 0;
    size_t Mask = NewCapacity - 1;
    for (size_t I = 0; I < OldCapacity; ++I) {
      Slot &S = OldSlots[I];
      if (!isLiveSlot(S))
        continue;
      size_t J = slotFor(S.Key);
      while (Slots[J].Key != EmptyKey)
        J = (J + 1) & Mask;
      Slots[J].Key = S.Key;
      Slots[J].Value = std::move(S.Value);
    }
    destroySlots(OldSlots, OldCapacity);
  }

  Slot *Slots = nullptr;
  size_t Capacity = 0;
  /// 64 - log2(Capacity): slotFor() keeps this many top product bits.
  /// Meaningless while Capacity == 0 (every probe path checks Live or
  /// Slots first, and the first insert rehashes before probing).
  unsigned Shift = 64;
  size_t Live = 0;       ///< Entries holding a value.
  size_t Used = 0;       ///< Live + tombstones (probe-chain occupancy).
  size_t Tombstones = 0;
};

} // namespace pacer

#endif // PACER_CORE_FLATVARTABLE_H
