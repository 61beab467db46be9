// Conventional LSH bucket storage with chaining — the "vertical addressing"
// the paper argues against (§III-C3).
//
// Buckets are linked lists of unbounded length, so a probe's cost is
// data-dependent and unpredictable under skew; FAST replaces this with the
// flat cuckoo table. We keep the chained variant as the baseline for the
// ablation benches and to measure probe-length distributions.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hash/hashes.hpp"
#include "util/codec.hpp"

namespace fast::hash {

class LshTableChained {
 public:
  /// `buckets` chain heads; values are appended to their bucket's chain.
  explicit LshTableChained(std::size_t buckets, std::uint64_t seed = 0xc4a1);

  std::size_t bucket_count() const noexcept { return heads_.size(); }
  std::size_t size() const noexcept { return size_; }

  /// Appends `value` under `key`. Never fails (chains grow unboundedly).
  void insert(std::uint64_t key, std::uint64_t value);

  /// Unlinks the first node stored under `key`; returns false when absent.
  /// The node's arena slot is abandoned (index-linked storage), so erase
  /// frees no memory — acceptable for the baseline's expiry path.
  bool erase(std::uint64_t key) noexcept;

  /// Returns all values stored under `key`, walking the chain. The probe
  /// cost (number of nodes traversed, including non-matching collisions) is
  /// written to `probes` when non-null — the quantity FAST's flat
  /// addressing bounds and chaining does not.
  std::vector<std::uint64_t> find(std::uint64_t key,
                                  std::size_t* probes = nullptr) const;

  /// Length of the chain the key maps to.
  std::size_t chain_length(std::uint64_t key) const noexcept;

  /// Longest chain in the table (load-imbalance diagnostic).
  std::size_t max_chain_length() const noexcept;

  /// Verbatim dump — chain heads, node arena (including abandoned nodes),
  /// salt — so a deserialized table is bit-identical, probe costs included.
  void serialize(util::ByteWriter& out) const;

  /// Inverse of serialize(). Returns nullopt on truncated input, a link
  /// that does not point at an OLDER node (every chain is acyclic: insert
  /// links to the previous head, erase splices to a still older node), or
  /// a stored value >= `value_limit`.
  static std::optional<LshTableChained> deserialize(util::ByteReader& in,
                                                    std::uint64_t value_limit);

 private:
  LshTableChained() : salt_(0) {}  ///< shell for deserialize() to fill

  struct Node {
    std::uint64_t key;
    std::uint64_t value;
    std::int64_t next;  // index into nodes_, -1 = end
  };

  std::size_t bucket_of(std::uint64_t key) const noexcept {
    return mix64(key ^ salt_) % heads_.size();
  }

  std::vector<std::int64_t> heads_;  // -1 = empty
  std::vector<Node> nodes_;
  std::uint64_t salt_;
  std::size_t size_ = 0;
};

}  // namespace fast::hash
