// Standard two-choice cuckoo hash table (Pagh & Rodler 2001; the paper's
// ref [12]) mapping 64-bit keys to 64-bit values.
//
// Every key has exactly two candidate slots. Insertion displaces ("kicks")
// occupants to their alternate slot, up to a kick budget; exhausting the
// budget is an insertion failure, which in a real deployment forces a
// rehash — the event whose probability Fig. 6 of the paper measures.
// Displacements only ever move an item between its own two candidate slots,
// so lookups of previously inserted keys remain correct even after a failed
// insert (only the failed key itself is not stored).
#pragma once

#include <cstdint>
#include <optional>

#include <vector>

#include "hash/hashes.hpp"
#include "util/rng.hpp"

namespace fast::hash {

struct CuckooStats {
  std::size_t inserts = 0;        ///< successful insertions
  std::size_t failures = 0;       ///< insertions that exhausted the kick budget
  std::size_t total_kicks = 0;    ///< displacements across all insertions
  std::size_t max_kick_chain = 0; ///< longest single displacement chain
  /// Occupancy of the backing store (filled by the GroupStore aggregates;
  /// a bare table's stats() leaves them 0 — use size()/capacity() there).
  std::size_t occupied_slots = 0; ///< entries currently stored
  std::size_t capacity_slots = 0; ///< total slots (chain heads for chained)
};

class CuckooTable {
 public:
  /// `capacity` slots (rounded up to at least 4), `max_kicks` displacement
  /// budget per insertion.
  explicit CuckooTable(std::size_t capacity, std::uint64_t seed = 0xc0c0,
                       std::size_t max_kicks = 500);

  std::size_t capacity() const noexcept { return slots_.size(); }
  std::size_t size() const noexcept { return size_; }
  double load_factor() const noexcept {
    return static_cast<double>(size_) / static_cast<double>(slots_.size());
  }
  const CuckooStats& stats() const noexcept { return stats_; }

  /// Inserts key -> value. Returns false if the displacement budget was
  /// exhausted (the key is NOT stored; previously stored keys are intact).
  /// Inserting a key that is already present overwrites its value.
  bool insert(std::uint64_t key, std::uint64_t value);

  /// Probes the key's two candidate slots. O(1): at most 2 probes.
  std::optional<std::uint64_t> find(std::uint64_t key) const noexcept;

  bool contains(std::uint64_t key) const noexcept {
    return find(key).has_value();
  }

  /// Removes the key if present; returns whether it was found.
  bool erase(std::uint64_t key) noexcept;

  /// Number of slot probes a lookup performs (for the flat-addressing
  /// latency accounting): always 2 for the standard table.
  std::size_t probes_per_lookup() const noexcept { return 2; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    bool occupied = false;
  };

  std::size_t pos1(std::uint64_t key) const noexcept {
    return mix64(key ^ salt1_) % slots_.size();
  }
  std::size_t pos2(std::uint64_t key) const noexcept {
    return mix64(key ^ salt2_) % slots_.size();
  }

  std::vector<Slot> slots_;
  std::uint64_t salt1_;
  std::uint64_t salt2_;
  std::size_t max_kicks_;
  std::size_t size_ = 0;
  CuckooStats stats_;
  util::Rng rng_;
};

}  // namespace fast::hash
