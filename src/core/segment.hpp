// Immutable sealed segment of the tiered index (DESIGN.md §3f).
//
// A segment is a frozen MemtableIndex — its LSH tables, correlation groups,
// signatures and tombstones exactly as they stood at seal time — held
// behind shared_ptr<const> so queries and compaction can read it with no
// lock at all. Sealing is O(1) on the writer path (move the memtable, no
// bloom yet); a background pass then re-derives every stored signature's
// bucket keys and builds a per-segment bloom summary over (table, key)
// fingerprints, publishing an upgraded segment object that SHARES the same
// frozen state. Queries skip a segment entirely when none of their probe
// keys can be contained (in the spirit of Bloom-filter-guided distributed
// image retrieval), which keeps probe fan-out flat as segments accumulate.
//
// On disk a segment is one CRC-framed snapshot section (kSectionTierSegment)
// via the PR 4 codec: segment id, bloom geometry + words, then the frozen
// memtable's own serialization.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>

#include "core/memtable_index.hpp"
#include "core/pipeline/semantic_aggregator.hpp"
#include "hash/bloom_filter.hpp"

namespace fast::core {

class ImmutableSegment {
 public:
  /// Seals `state` as segment `id` with no bloom summary yet (every probe
  /// must check it until finalized).
  ImmutableSegment(std::uint64_t id,
                   std::shared_ptr<const MemtableIndex> state)
      : id_(id), state_(std::move(state)) {}

  /// Finalized segment: same frozen state, plus the probe-skipping bloom.
  ImmutableSegment(std::uint64_t id,
                   std::shared_ptr<const MemtableIndex> state,
                   hash::BloomFilter bloom)
      : id_(id), state_(std::move(state)), bloom_(std::move(bloom)) {}

  std::uint64_t id() const noexcept { return id_; }
  const MemtableIndex& state() const noexcept { return *state_; }
  std::shared_ptr<const MemtableIndex> shared_state() const noexcept {
    return state_;
  }
  bool finalized() const noexcept { return bloom_.has_value(); }
  const std::optional<hash::BloomFilter>& bloom() const noexcept {
    return bloom_;
  }

  std::size_t entries() const noexcept { return state_->entries(); }
  std::size_t tombstone_count() const noexcept {
    return state_->tombstone_count();
  }
  bool contains(std::uint64_t id) const { return state_->contains(id); }
  bool tombstoned(std::uint64_t id) const { return state_->tombstoned(id); }
  bool shadows(std::uint64_t id) const { return state_->shadows(id); }
  const hash::SparseSignature* signature_of(std::uint64_t id) const {
    return state_->signature_of(id);
  }

  /// Mixes (table, bucket key) into the single u64 domain the bloom filter
  /// indexes; distinct tables with equal keys must not collide.
  static std::uint64_t key_fingerprint(std::size_t t,
                                       std::uint64_t key) noexcept {
    return key ^ (static_cast<std::uint64_t>(t) * 0x9e3779b97f4a7c15ULL);
  }

  /// False only when the bloom PROVES no entry was placed under (t, key);
  /// a segment without a finalized bloom can never be skipped.
  bool may_contain(std::size_t t, std::uint64_t key) const {
    return !bloom_.has_value() ||
           bloom_->maybe_contains_u64(key_fingerprint(t, key));
  }

  /// Builds the probe-skipping bloom for `state` from its cached per-id
  /// home keys (no aggregator hashing; safe to run while queries read the
  /// same state). Sized to 10 bits per (table, key) pair, floor 64.
  static hash::BloomFilter build_bloom(const MemtableIndex& state);

  /// Snapshot-section codec (payload of one kSectionTierSegment).
  void serialize(util::ByteWriter& out) const;
  /// Rebuilds a segment from serialize() bytes; nullptr on malformed input.
  static std::shared_ptr<const ImmutableSegment> deserialize(
      util::ByteReader& in, const FastConfig& config, std::size_t tables);

 private:
  std::uint64_t id_;
  std::shared_ptr<const MemtableIndex> state_;
  std::optional<hash::BloomFilter> bloom_;
};

}  // namespace fast::core
