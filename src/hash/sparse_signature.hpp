// Sparse encoding of a Bloom bit-vector: only the indices of set bits.
//
// This is the paper's headline space saving — "the space required by its
// features can be reduced from the original 200KB to 40B" — achieved by
// keeping just the non-zero bit positions of the per-image summary.
//
// Similarity has one kernel, DenseQuery: the query's set bits are
// materialized once per query as a dense bitset, and each candidate's set
// bits probe it (the bitmap-probe scheme of Jafari et al.). A dense vector
// is built once per query, never per candidate, and stored signatures stay
// sparse.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hash/bloom_filter.hpp"

namespace fast::hash {

class SparseSignature {
 public:
  class DenseQuery;

  SparseSignature() = default;

  /// Extracts the sorted set-bit positions of `filter`.
  explicit SparseSignature(const BloomFilter& filter);

  /// Builds directly from sorted, unique bit positions.
  SparseSignature(std::vector<std::uint32_t> set_bits, std::uint32_t bit_count);

  std::uint32_t bit_count() const noexcept { return bit_count_; }
  const std::vector<std::uint32_t>& set_bits() const noexcept { return bits_; }
  std::size_t popcount() const noexcept { return bits_.size(); }

  /// Serializes as [bit_count varint][entry count varint][delta varints].
  /// Set-bit positions are sorted, so consecutive deltas are small and
  /// typically fit one byte — this is what makes per-image summaries a few
  /// hundred bytes instead of kilobytes (the paper's headline space cut).
  std::vector<std::uint8_t> encode() const;

  /// Inverse of encode(). Throws std::runtime_error on malformed input.
  static SparseSignature decode(std::span<const std::uint8_t> bytes);

  /// Serialized size in bytes (what the index actually stores per image).
  std::size_t storage_bytes() const noexcept;

  // One-off pair measures: each builds a DenseQuery over `a`. Code that
  // compares one signature against many builds the DenseQuery itself.

  /// |A ∩ B|: number of bit positions set in both signatures.
  static std::size_t overlap(const SparseSignature& a,
                             const SparseSignature& b);

  /// Hamming distance = |A| + |B| - 2 |A ∩ B|.
  static std::size_t hamming(const SparseSignature& a,
                             const SparseSignature& b);

  /// Jaccard similarity |A ∩ B| / |A ∪ B| (1.0 for two empty signatures).
  static double jaccard(const SparseSignature& a, const SparseSignature& b);

  /// Reconstructs the dense {0,1} float vector. The p-stable SA path no
  /// longer needs this (PStableLsh::bucket_coords_sparse projects straight
  /// off set_bits()); kept for baselines, tests, and non-0/1 dense inputs.
  std::vector<float> to_float_vector() const;

 private:
  std::uint32_t bit_count_ = 0;
  std::vector<std::uint32_t> bits_;  // sorted ascending, unique
};

/// The overlap kernel. Built once per query: ceil(bit_count/64) words with
/// the query's set bits set (2 KB at the default 16384-bit width). Each
/// candidate then costs one bit test per candidate set bit — branch-free
/// and exact, so overlap, hamming and jaccard are the same integers and
/// doubles a sorted merge of the two bit lists would give.
class SparseSignature::DenseQuery {
 public:
  explicit DenseQuery(const SparseSignature& query);

  /// |Q ∩ C|. A candidate bit at or past the query's width is a miss (it
  /// cannot be set in the query) and is never read out of range.
  std::size_t overlap(const SparseSignature& candidate) const noexcept;

  /// |Q| + |C| - 2 |Q ∩ C|.
  std::size_t hamming(const SparseSignature& candidate) const noexcept {
    return popcount_ + candidate.popcount() - 2 * overlap(candidate);
  }

  /// |Q ∩ C| / |Q ∪ C| in double (1.0 for two empty signatures).
  double jaccard(const SparseSignature& candidate) const noexcept;

 private:
  std::uint32_t bit_count_;
  std::size_t popcount_;
  std::vector<std::uint64_t> words_;
};

}  // namespace fast::hash
