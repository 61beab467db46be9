// GroupIndex — the CHS core FastIndex and the tiered memtables share
// (DESIGN.md §3a, §3f): one pipeline::GroupStore chosen by
// config.chs_backend (bucket key -> correlation-group id, per table), the
// group id -> member lists, and the id -> signature map. It is the one
// implementation of group membership — placement, removal, candidate
// collection, byte accounting — and of the bounded codec for its three
// payloads, so both index layouts restore through one parser that checks
// every cross-reference (store values name real groups, group members have
// signatures).
//
// Key derivation is not here: callers pass per-table bucket keys. FastIndex
// derives them through IndexFront; the memtable caches them per id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/pipeline/group_store.hpp"
#include "hash/sparse_signature.hpp"
#include "util/codec.hpp"

namespace fast::core {

/// Sorts collected candidate ids and drops duplicates (an id shares a
/// group with the query in several tables): the candidate set, in id order.
inline void sort_unique(std::vector<std::uint64_t>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

class GroupIndex {
 public:
  /// Empty core over `tables` tables (the aggregator's table_count()).
  GroupIndex(const FastConfig& config, std::size_t tables);

  GroupIndex(GroupIndex&&) = default;
  GroupIndex& operator=(GroupIndex&&) = default;

  std::size_t table_count() const noexcept { return store_->table_count(); }
  /// Stored signatures.
  std::size_t size() const noexcept { return signatures_.size(); }
  std::size_t group_count() const noexcept { return groups_.size(); }

  bool contains(std::uint64_t id) const {
    return signatures_.find(id) != signatures_.end();
  }
  const hash::SparseSignature* signature_of(std::uint64_t id) const {
    const auto it = signatures_.find(id);
    return it == signatures_.end() ? nullptr : &it->second;
  }
  const std::unordered_map<std::uint64_t, hash::SparseSignature>& signatures()
      const noexcept {
    return signatures_;
  }
  /// Members of group `g` (erased groups stay as empty husks).
  std::span<const std::uint64_t> group_members(std::size_t g) const {
    return groups_.at(g);
  }
  const pipeline::GroupStore& store() const noexcept { return *store_; }

  /// Ids with signatures, ascending: the deterministic order of every
  /// snapshot payload and of sealing/compaction walks.
  std::vector<std::uint64_t> sorted_ids() const;

  /// What one placement did, for the caller to charge and count.
  struct Placement {
    /// Modeled slot reads in the order they happened: each table's group
    /// lookup, followed (when the key was new) by the store's per-lookup
    /// cost for placing the new group.
    std::vector<std::size_t> ram_reads;
    std::size_t slot_reads = 0;     ///< lookup slot reads across tables
    std::size_t group_hits = 0;     ///< tables whose key had a group
    std::size_t group_creates = 0;  ///< tables that opened a new group
    std::size_t rehashes = 0;       ///< store rehash events
  };

  /// Joins `id` to the group of each per-table key (keys.size() ==
  /// table_count()), opening a group where the key is new, and stores its
  /// signature. The id must not be present (re-insert removes first).
  Placement place(std::uint64_t id, const hash::SparseSignature& signature,
                  std::span<const std::uint64_t> keys);

  /// Takes a present `id` out of the groups of its keys (an emptied group's
  /// key leaves the store, so queries stop probing it) and drops its
  /// signature.
  void remove(std::uint64_t id, std::span<const std::uint64_t> keys);

  /// Probes one (table, key) bucket and appends the group's members to
  /// `out` (the caller sorts and dedups once, after its last probe). Adds
  /// the lookup's modeled slot reads to *slot_reads.
  void collect(std::size_t t, std::uint64_t key,
               std::vector<std::uint64_t>& out,
               std::size_t* slot_reads) const {
    std::size_t lookup_probes = 0;
    if (const auto group = store_->find(t, key, &lookup_probes)) {
      const std::vector<std::uint64_t>& members = groups_[*group];
      out.insert(out.end(), members.begin(), members.end());
    }
    *slot_reads += lookup_probes;
  }

  /// In-memory bytes: signatures (+ their ids), store slots and membership
  /// lists.
  std::size_t bytes() const;

  // --- Codec ---------------------------------------------------------
  //
  // Three payloads, written in this order and read back in the same order
  // into a freshly constructed core (a failed read leaves it unusable):
  //   signatures  u64 n, then per id ascending: u64 id, blob signature,
  //               and the caller's per-entry bytes
  //   groups      u64 n, then per group: u64 m, m x u64 member id
  //   store       GroupStore::serialize
  // Every count is bounded by the bytes left before anything is reserved.

  /// `extra(id, out)` appends the caller's per-entry bytes.
  template <typename Extra>
  void write_signatures(util::ByteWriter& out, const Extra& extra) const {
    const std::vector<std::uint64_t> ids = sorted_ids();
    out.u64(ids.size());
    for (const std::uint64_t id : ids) {
      out.u64(id);
      out.blob(signatures_.at(id).encode());
      extra(id, out);
    }
  }
  void write_signatures(util::ByteWriter& out) const {
    write_signatures(out, [](std::uint64_t, util::ByteWriter&) {});
  }
  void write_groups(util::ByteWriter& out) const;
  void write_store(util::ByteWriter& out) const { store_->serialize(out); }

  /// `read_extra(id, in)` consumes the caller's per-entry bytes (at least
  /// `extra_bytes` of them) and returns false on bad input. Rejects a
  /// signature of the wrong width and a duplicate id.
  template <typename ReadExtra>
  bool read_signatures(util::ByteReader& in, std::size_t extra_bytes,
                       const ReadExtra& read_extra) {
    const std::uint64_t count = in.u64();
    // 8 (id) + 4 (blob length prefix) + extra bytes per entry at least.
    if (!in.ok() || count > in.remaining() / (12 + extra_bytes)) return false;
    signatures_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t id = 0;
      if (!read_signature(in, &id) || !read_extra(id, in)) return false;
    }
    return in.ok();
  }
  bool read_signatures(util::ByteReader& in) {
    return read_signatures(in, 0,
                           [](std::uint64_t, util::ByteReader&) { return true; });
  }
  /// Rejects a member id without a signature (read signatures first).
  bool read_groups(util::ByteReader& in);
  /// Rejects a stored group id >= group_count() (read groups first).
  bool read_store(util::ByteReader& in) {
    return store_->deserialize(in, groups_.size());
  }

 private:
  /// One (id, signature) entry; false on bad bytes or a duplicate id.
  bool read_signature(util::ByteReader& in, std::uint64_t* id);

  std::unique_ptr<pipeline::GroupStore> store_;
  std::vector<std::vector<std::uint64_t>> groups_;  // group id -> member ids
  std::unordered_map<std::uint64_t, hash::SparseSignature> signatures_;
  std::size_t bloom_bits_;  ///< width every stored signature must have
};

}  // namespace fast::core
