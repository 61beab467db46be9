#include "core/group_index.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/pipeline/factory.hpp"
#include "util/check.hpp"

namespace fast::core {

GroupIndex::GroupIndex(const FastConfig& config, std::size_t tables)
    : store_(pipeline::make_group_store(config, tables)),
      bloom_bits_(config.bloom_bits) {}

std::vector<std::uint64_t> GroupIndex::sorted_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(signatures_.size());
  for (const auto& entry : signatures_) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  return ids;
}

GroupIndex::Placement GroupIndex::place(
    std::uint64_t id, const hash::SparseSignature& signature,
    std::span<const std::uint64_t> keys) {
  FAST_CHECK(keys.size() == store_->table_count());
  FAST_CHECK_MSG(!contains(id), "place() on a present id; remove() it first");
  Placement placed;
  placed.ram_reads.reserve(2 * keys.size());
  for (std::size_t t = 0; t < keys.size(); ++t) {
    std::size_t lookup_probes = 0;
    const auto group = store_->find(t, keys[t], &lookup_probes);
    placed.ram_reads.push_back(lookup_probes);
    placed.slot_reads += lookup_probes;
    if (group) {
      groups_[*group].push_back(id);
      ++placed.group_hits;
    } else {
      const std::uint64_t group_id = groups_.size();
      groups_.emplace_back(std::vector<std::uint64_t>{id});
      placed.rehashes += store_->place(t, keys[t], group_id);
      placed.ram_reads.push_back(store_->lookup_cost_probes(t));
      ++placed.group_creates;
    }
  }
  signatures_.emplace(id, signature);
  return placed;
}

void GroupIndex::remove(std::uint64_t id, std::span<const std::uint64_t> keys) {
  const auto it = signatures_.find(id);
  FAST_CHECK_MSG(it != signatures_.end(), "remove() on an absent id");
  for (std::size_t t = 0; t < keys.size(); ++t) {
    if (const auto group = store_->find(t, keys[t])) {
      auto& members = groups_[*group];
      members.erase(std::remove(members.begin(), members.end(), id),
                    members.end());
      // (Flat-cuckoo rebuild logs keep the mapping; a rebuilt table would
      // resurrect the key pointing at an empty group — harmless.)
      if (members.empty()) store_->erase_key(t, keys[t]);
    }
  }
  signatures_.erase(it);
}

std::size_t GroupIndex::bytes() const {
  std::size_t bytes = 0;
  for (const auto& [id, sig] : signatures_) {
    bytes += sizeof(id) + sig.storage_bytes();
  }
  bytes += store_->store_bytes();
  for (const auto& group : groups_) {
    bytes += sizeof(std::uint64_t) * group.size() + sizeof(std::uint64_t);
  }
  return bytes;
}

void GroupIndex::write_groups(util::ByteWriter& out) const {
  out.u64(groups_.size());
  for (const auto& members : groups_) {
    out.u64(members.size());
    for (const std::uint64_t id : members) out.u64(id);
  }
}

bool GroupIndex::read_signature(util::ByteReader& in, std::uint64_t* id) {
  *id = in.u64();
  const auto encoded = in.blob();
  if (!in.ok()) return false;
  try {
    hash::SparseSignature sig = hash::SparseSignature::decode(encoded);
    if (sig.bit_count() != bloom_bits_) return false;
    return signatures_.emplace(*id, std::move(sig)).second;
  } catch (const std::runtime_error&) {
    return false;
  }
}

bool GroupIndex::read_groups(util::ByteReader& in) {
  const std::uint64_t group_count = in.u64();
  if (!in.ok() || group_count > in.remaining() / 8) return false;
  groups_.reserve(group_count);
  for (std::uint64_t g = 0; g < group_count; ++g) {
    const std::uint64_t members = in.u64();
    if (!in.ok() || members > in.remaining() / 8) return false;
    std::vector<std::uint64_t> list;
    list.reserve(members);
    for (std::uint64_t i = 0; i < members; ++i) {
      const std::uint64_t id = in.u64();
      // Candidate ranking looks every member's signature up.
      if (!contains(id)) return false;
      list.push_back(id);
    }
    groups_.push_back(std::move(list));
  }
  return in.ok();
}

}  // namespace fast::core
