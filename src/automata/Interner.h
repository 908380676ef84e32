//===- automata/Interner.h - Arena-backed macro-state interning -*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared intern-table machinery behind every lazily constructed
/// complement: the subset-construction states of the finite-trace
/// complement (Section 3.1.2), rank states (Kupferman-Vardi), NCSB
/// macro-states (Section 5), and the (aState, cState) pairs of the
/// on-the-fly product (Section 4). Complementation throughput is dominated
/// by successor enumeration and macro-state dedup, so these tables are
/// built for the dedup half. All three share one scheme:
///
///  * ids are dense and assigned in first-intern order, so a sequence of
///    intern() calls yields the same ids whatever the table's layout
///    (construction determinism);
///  * the lookup index is a single open-addressing table of ids: one flat
///    allocation, linear probing, load factor 5/8; rehashing reinserts ids
///    from stored hashes (or packed pair keys) without touching the values
///    again. Interner<T> and WordInterner share that index (IdIndex) and
///    differ only in where the values live; PairInterner keys its own
///    table by the packed pair, which is its own value.
///
/// Where the values live:
///
///  * Interner<T> keeps values of any type in a chunked arena; growth
///    never moves an element, so `const T &` references handed out by
///    operator[] stay valid across later intern() calls. `T` needs
///    `size_t hash() const`, `operator==`, a default constructor, and move
///    assignment.
///  * WordInterner keeps fixed-width word strings (the NCSB bitsets) back
///    to back in one word vector, value I at offset Width * I: no value
///    owns heap memory of its own. Growth may move the words, so a
///    pointer from words() lives only until the next intern().
///  * PairInterner packs a (left, right) state pair into one 64-bit key.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_AUTOMATA_INTERNER_H
#define TERMCHECK_AUTOMATA_INTERNER_H

#include "automata/PerfCounters.h"
#include "automata/StateSet.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace termcheck {

/// The id index behind Interner<T> and WordInterner: dense ids in
/// first-intern order, the hash of each id, and one open-addressing table
/// of ids (linear probing, load factor 5/8, regrown from the stored
/// hashes). The owner keeps the values and compares them.
class IdIndex {
public:
  /// \returns the id stored under hash \p H for which \p Equal(Id) holds,
  /// with second = false; otherwise records the fresh id size() under \p H
  /// and returns it with second = true, and the owner stores its value.
  template <typename EqualFn>
  std::pair<State, bool> intern(size_t H, EqualFn Equal) {
    if (Hashes.size() * 8 >= Table.size() * 5) // load factor 5/8
      grow();
    size_t Mask = Table.size() - 1;
    size_t Idx = H & Mask;
    while (Table[Idx] != Empty) {
      State Id = Table[Idx];
      if (Hashes[Id] == H && Equal(Id)) {
        ++perf::local().InternHits;
        return {Id, false};
      }
      Idx = (Idx + 1) & Mask;
    }
    State Id = static_cast<State>(Hashes.size());
    Hashes.push_back(H);
    Table[Idx] = Id;
    ++perf::local().InternMisses;
    return {Id, true};
  }

  size_t size() const { return Hashes.size(); }

private:
  static constexpr State Empty = ~State(0);

  std::vector<size_t> Hashes; ///< by id
  std::vector<State> Table{Empty, Empty, Empty, Empty,
                           Empty, Empty, Empty, Empty};

  void grow() {
    std::vector<State> Next(Table.size() * 2, Empty);
    size_t Mask = Next.size() - 1;
    for (size_t Id = 0; Id < Hashes.size(); ++Id) {
      size_t Idx = Hashes[Id] & Mask;
      while (Next[Idx] != Empty)
        Idx = (Idx + 1) & Mask;
      Next[Idx] = static_cast<State>(Id);
    }
    Table = std::move(Next);
  }
};

/// Arena-backed intern table with stable references and dense ids.
template <typename T> class Interner {
public:
  /// Interns \p V: \returns the id of the existing equal value, or a fresh
  /// dense id with \p V moved into the arena.
  State intern(T V) {
    auto [Id, Fresh] =
        Index.intern(V.hash(), [&](State Id) { return (*this)[Id] == V; });
    if (Fresh) {
      if ((Id & ChunkMask) == 0)
        Chunks.push_back(std::make_unique<T[]>(ChunkSize));
      Chunks[Id >> ChunkShift][Id & ChunkMask] = std::move(V);
    }
    return Id;
  }

  /// The value behind \p Id. The reference is stable: it survives every
  /// later intern() (the arena grows by whole chunks, never reallocates).
  const T &operator[](State Id) const {
    assert(Id < size() && "unknown intern id");
    return Chunks[Id >> ChunkShift][Id & ChunkMask];
  }

  size_t size() const { return Index.size(); }

private:
  static constexpr size_t ChunkShift = 6;
  static constexpr size_t ChunkSize = size_t(1) << ChunkShift;
  static constexpr size_t ChunkMask = ChunkSize - 1;

  std::vector<std::unique_ptr<T[]>> Chunks;
  IdIndex Index;
};

/// Intern table for strings of Width words, stored back to back in one
/// word vector. Ids are dense in first-intern order.
class WordInterner {
public:
  explicit WordInterner(size_t Width) : Width(Width) {}

  /// Interns the Width words at \p Key, which must not point into this
  /// table: \returns the id of the equal string, or a fresh dense id with
  /// the words copied into the arena.
  State intern(const uint64_t *Key) {
    auto [Id, Fresh] = Index.intern(hash(Key), [&](State Id) {
      return std::equal(Key, Key + Width, words(Id));
    });
    if (Fresh)
      Words.insert(Words.end(), Key, Key + Width);
    return Id;
  }

  /// The Width words of \p Id. Valid until the next intern().
  const uint64_t *words(State Id) const {
    assert(Id < size() && "unknown intern id");
    return Words.data() + Id * Width;
  }

  size_t size() const { return Index.size(); }

private:
  size_t Width;
  std::vector<uint64_t> Words;
  IdIndex Index;

  size_t hash(const uint64_t *Key) const {
    uint64_t H = 0x9e3779b97f4a7c15ULL;
    for (size_t I = 0; I < Width; ++I) {
      H = (H ^ Key[I]) * 0xbf58476d1ce4e5b9ULL;
      H ^= H >> 31;
    }
    return H;
  }
};

/// Open-addressing intern table for (left, right) state pairs packed into a
/// 64-bit key: the product states of the difference engine, degeneralization
/// layers, and lasso-membership products. Ids are dense in first-intern
/// order; the caller keeps its own id -> payload side table.
class PairInterner {
public:
  /// Interns the pair \p P, \p Q. \returns (id, inserted).
  std::pair<State, bool> intern(State P, State Q) {
    uint64_t Key = (static_cast<uint64_t>(P) << 32) | Q;
    if (Keys.size() * 8 >= Table.size() * 5)
      growTable();
    size_t Mask = Table.size() - 1;
    size_t Idx = mix(Key) & Mask;
    while (Table[Idx] != Empty) {
      State Id = Table[Idx];
      if (Keys[Id] == Key)
        return {Id, false};
      Idx = (Idx + 1) & Mask;
    }
    State Id = static_cast<State>(Keys.size());
    Keys.push_back(Key);
    Table[Idx] = Id;
    return {Id, true};
  }

  /// Decodes an id back into its (left, right) pair.
  std::pair<State, State> get(State Id) const {
    assert(Id < Keys.size() && "unknown pair id");
    return {static_cast<State>(Keys[Id] >> 32),
            static_cast<State>(Keys[Id] & 0xffffffffULL)};
  }

  size_t size() const { return Keys.size(); }

private:
  static constexpr State Empty = ~State(0);

  std::vector<uint64_t> Keys;
  std::vector<State> Table{Empty, Empty, Empty, Empty,
                           Empty, Empty, Empty, Empty};

  /// splitmix64 finalizer: the raw packed key is far too regular (dense
  /// state ids in both halves) for masked linear probing.
  static uint64_t mix(uint64_t X) {
    X += 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return X ^ (X >> 31);
  }

  void growTable() {
    std::vector<State> Next(Table.size() * 2, Empty);
    size_t Mask = Next.size() - 1;
    for (size_t Id = 0; Id < Keys.size(); ++Id) {
      size_t Idx = mix(Keys[Id]) & Mask;
      while (Next[Idx] != Empty)
        Idx = (Idx + 1) & Mask;
      Next[Idx] = static_cast<State>(Id);
    }
    Table = std::move(Next);
  }
};

} // namespace termcheck

#endif // TERMCHECK_AUTOMATA_INTERNER_H
