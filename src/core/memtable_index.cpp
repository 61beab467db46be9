#include "core/memtable_index.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace fast::core {

GroupIndex::Placement MemtableIndex::place(
    std::uint64_t id, const hash::SparseSignature& signature,
    std::span<const std::uint64_t> keys) {
  GroupIndex::Placement placed = core_.place(id, signature, keys);
  keys_.emplace(id, std::vector<std::uint64_t>(keys.begin(), keys.end()));
  tombstones_.erase(id);
  return placed;
}

void MemtableIndex::remove(std::uint64_t id) {
  const auto it = keys_.find(id);
  FAST_CHECK_MSG(it != keys_.end(), "remove() on an absent id");
  core_.remove(id, it->second);
  keys_.erase(it);
}

std::size_t MemtableIndex::bytes() const {
  return core_.bytes() +
         sizeof(std::uint64_t) * core_.table_count() * core_.size() +
         sizeof(std::uint64_t) * tombstones_.size();
}

void MemtableIndex::serialize(util::ByteWriter& out) const {
  // Cached home keys follow each signature, one per table (count implied
  // by the store).
  core_.write_signatures(out, [this](std::uint64_t id, util::ByteWriter& w) {
    for (const std::uint64_t key : keys_.at(id)) w.u64(key);
  });

  std::vector<std::uint64_t> dead(tombstones_.begin(), tombstones_.end());
  std::sort(dead.begin(), dead.end());
  out.u64(dead.size());
  for (const std::uint64_t id : dead) out.u64(id);

  core_.write_groups(out);
  core_.write_store(out);
}

bool MemtableIndex::deserialize(util::ByteReader& in) {
  const std::size_t tables = core_.table_count();
  const auto read_keys = [&](std::uint64_t id, util::ByteReader& r) {
    std::vector<std::uint64_t> home(tables);
    for (auto& key : home) key = r.u64();
    if (!r.ok()) return false;
    keys_.emplace(id, std::move(home));
    return true;
  };
  if (!core_.read_signatures(in, tables * 8, read_keys)) return false;

  const std::uint64_t dead_count = in.u64();
  if (!in.ok() || dead_count > in.remaining() / 8) return false;
  tombstones_.reserve(dead_count);
  for (std::uint64_t i = 0; i < dead_count; ++i) {
    // A layer never holds both a signature and a tombstone for one id.
    const std::uint64_t id = in.u64();
    if (core_.contains(id)) return false;
    tombstones_.insert(id);
  }
  return in.ok() && core_.read_groups(in) && core_.read_store(in);
}

}  // namespace fast::core
