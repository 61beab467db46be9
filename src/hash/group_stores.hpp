// GroupStore adapters: the CHS backends of the pipeline.
//
//  - FlatCuckooGroupStore: the paper's flat-structured addressing — L
//    windowed cuckoo tables with proactive doubling at 80% load and
//    full-table rehash on placement failure (§III-C3, Fig. 6). Lookups are
//    a fixed 2W independent slot reads.
//  - ChainedGroupStore: conventional vertical addressing (bucket chains of
//    unbounded length), the baseline the paper argues against. Kept as a
//    runtime-selectable backend so ablations measure the probe-cost gap
//    without bench-only forks of the pipeline.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/pipeline/group_store.hpp"
#include "hash/flat_cuckoo_table.hpp"
#include "hash/lsh_table_chained.hpp"

namespace fast::hash {

class FlatCuckooGroupStore final : public core::pipeline::GroupStore {
 public:
  /// `tables` cuckoo tables derived from `base` with per-table salted seeds.
  FlatCuckooGroupStore(const FlatCuckooConfig& base, std::size_t tables);

  std::size_t table_count() const noexcept override {
    return tables_.size();
  }
  std::optional<std::uint64_t> find(std::size_t t, std::uint64_t key,
                                    std::size_t* probes) const override;
  std::size_t place(std::size_t t, std::uint64_t key,
                    std::uint64_t group) override;
  void erase_key(std::size_t t, std::uint64_t key) override;
  std::size_t lookup_cost_probes(std::size_t t) const noexcept override;
  std::size_t store_bytes() const noexcept override;
  CuckooStats stats() const noexcept override;
  void serialize(util::ByteWriter& out) const override;
  bool deserialize(util::ByteReader& in, std::uint64_t group_count) override;

 private:
  struct Table {
    FlatCuckooTable cuckoo;
    /// Append-only (key -> group) log enabling rebuild on rehash.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
    std::uint64_t seed;
  };

  /// Doubles a table's capacity when its load factor crosses the growth
  /// threshold (amortized O(1) insert despite fixed-size tables).
  void maybe_grow(std::size_t t);

  /// Rebuilds `table` from its log under fresh seeds, starting at
  /// `capacity` and doubling whenever even a fresh seed cannot place every
  /// entry. Returns the number of seeds tried.
  std::size_t rebuild(Table& table, std::size_t capacity);

  FlatCuckooConfig base_;
  std::vector<Table> tables_;
};

class ChainedGroupStore final : public core::pipeline::GroupStore {
 public:
  /// `tables` chained tables of `buckets` chain heads each.
  ChainedGroupStore(std::size_t buckets, std::uint64_t seed,
                    std::size_t tables);

  std::size_t table_count() const noexcept override {
    return tables_.size();
  }
  std::optional<std::uint64_t> find(std::size_t t, std::uint64_t key,
                                    std::size_t* probes) const override;
  std::size_t place(std::size_t t, std::uint64_t key,
                    std::uint64_t group) override;
  void erase_key(std::size_t t, std::uint64_t key) override;
  std::size_t lookup_cost_probes(std::size_t t) const noexcept override;
  std::size_t store_bytes() const noexcept override;
  CuckooStats stats() const noexcept override;
  void serialize(util::ByteWriter& out) const override;
  bool deserialize(util::ByteReader& in, std::uint64_t group_count) override;

 private:
  std::vector<LshTableChained> tables_;
};

}  // namespace fast::hash
