#include "hash/group_stores.hpp"

#include <algorithm>

namespace fast::hash {

namespace {
/// Proactive growth threshold for the per-table cuckoo load factor.
constexpr double kGrowAt = 0.80;
}  // namespace

FlatCuckooGroupStore::FlatCuckooGroupStore(const FlatCuckooConfig& base,
                                           std::size_t tables)
    : base_(base) {
  tables_.reserve(tables);
  for (std::size_t t = 0; t < tables; ++t) {
    FlatCuckooConfig cc = base_;
    cc.seed = base_.seed + t * 0x9e37ULL;
    tables_.push_back(Table{FlatCuckooTable(cc), {}, cc.seed});
  }
}

std::optional<std::uint64_t> FlatCuckooGroupStore::find(
    std::size_t t, std::uint64_t key, std::size_t* probes) const {
  // Flat addressing: every lookup is the same fixed 2W slot reads.
  if (probes != nullptr) *probes = tables_[t].cuckoo.probes_per_lookup();
  return tables_[t].cuckoo.find(key);
}

std::size_t FlatCuckooGroupStore::rebuild(Table& table,
                                          std::size_t capacity) {
  for (std::size_t attempts = 1;; ++attempts) {
    table.seed = mix64(table.seed + 1);
    FlatCuckooConfig cc = base_;
    cc.capacity = capacity;
    cc.seed = table.seed;
    FlatCuckooTable rebuilt(cc);
    bool ok = true;
    for (const auto& [k, g] : table.entries) {
      if (!rebuilt.insert(k, g)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      table.cuckoo = std::move(rebuilt);
      return attempts;
    }
    capacity *= 2;
  }
}

void FlatCuckooGroupStore::maybe_grow(std::size_t t) {
  Table& table = tables_[t];
  if (table.cuckoo.load_factor() < kGrowAt) return;
  rebuild(table, table.cuckoo.capacity() * 2);
}

std::size_t FlatCuckooGroupStore::place(std::size_t t, std::uint64_t key,
                                        std::uint64_t group) {
  maybe_grow(t);
  Table& table = tables_[t];
  table.entries.emplace_back(key, group);
  if (table.cuckoo.insert(key, group)) return 0;
  // Rehash: rebuild this table's cuckoo with a fresh seed (same capacity
  // first; rebuild() doubles it only near 100% load). Every seed tried is
  // one rehash event.
  return rebuild(table, table.cuckoo.capacity());
}

void FlatCuckooGroupStore::erase_key(std::size_t t, std::uint64_t key) {
  // The append-only rebuild log keeps the mapping; a rebuilt table would
  // resurrect the key pointing at an empty group — harmless.
  tables_[t].cuckoo.erase(key);
}

std::size_t FlatCuckooGroupStore::lookup_cost_probes(
    std::size_t t) const noexcept {
  return tables_[t].cuckoo.probes_per_lookup();
}

std::size_t FlatCuckooGroupStore::store_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Table& t : tables_) bytes += t.cuckoo.memory_bytes();
  return bytes;
}

CuckooStats FlatCuckooGroupStore::stats() const noexcept {
  CuckooStats total;
  for (const Table& t : tables_) {
    const CuckooStats& s = t.cuckoo.stats();
    total.inserts += s.inserts;
    total.failures += s.failures;
    total.total_kicks += s.total_kicks;
    total.max_kick_chain = std::max(total.max_kick_chain, s.max_kick_chain);
    total.occupied_slots += t.cuckoo.size();
    total.capacity_slots += t.cuckoo.capacity();
  }
  return total;
}

void FlatCuckooGroupStore::serialize(util::ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(tables_.size()));
  for (const Table& table : tables_) {
    out.u64(table.seed);
    // The rebuild log must survive: a post-recovery rehash replays it.
    out.u64(table.entries.size());
    for (const auto& [key, group] : table.entries) {
      out.u64(key);
      out.u64(group);
    }
    table.cuckoo.serialize(out);
  }
}

bool FlatCuckooGroupStore::deserialize(util::ByteReader& in,
                                       std::uint64_t group_count) {
  const std::uint32_t tables = in.u32();
  if (!in.ok() || tables != tables_.size()) return false;
  for (Table& table : tables_) {
    table.seed = in.u64();
    const std::uint64_t entries = in.u64();
    if (!in.ok() || entries > in.remaining() / 16) return false;
    table.entries.clear();
    table.entries.reserve(entries);
    for (std::uint64_t i = 0; i < entries; ++i) {
      const std::uint64_t key = in.u64();
      const std::uint64_t group = in.u64();
      // A rebuild replays the log into the table, so it is checked too.
      if (group >= group_count) return false;
      table.entries.emplace_back(key, group);
    }
    auto cuckoo = FlatCuckooTable::deserialize(in, group_count);
    // Every table this store builds keeps the configured window and kick
    // budget; a stored budget is otherwise an unbounded insert loop.
    if (!cuckoo.has_value() || cuckoo->window() != base_.window ||
        cuckoo->max_kicks() != base_.max_kicks) {
      return false;
    }
    table.cuckoo = std::move(*cuckoo);
  }
  return in.ok();
}

ChainedGroupStore::ChainedGroupStore(std::size_t buckets, std::uint64_t seed,
                                     std::size_t tables) {
  tables_.reserve(tables);
  for (std::size_t t = 0; t < tables; ++t) {
    tables_.emplace_back(buckets, seed + t * 0x9e37ULL);
  }
}

std::optional<std::uint64_t> ChainedGroupStore::find(
    std::size_t t, std::uint64_t key, std::size_t* probes) const {
  // Vertical addressing: the probe cost is the chain walk, data-dependent.
  std::size_t walked = 0;
  const std::vector<std::uint64_t> values = tables_[t].find(key, &walked);
  if (probes != nullptr) *probes = walked;
  if (values.empty()) return std::nullopt;
  return values.front();
}

std::size_t ChainedGroupStore::place(std::size_t t, std::uint64_t key,
                                     std::uint64_t group) {
  tables_[t].insert(key, group);
  return 0;  // chains grow unboundedly; placement never rehashes
}

void ChainedGroupStore::erase_key(std::size_t t, std::uint64_t key) {
  tables_[t].erase(key);
}

std::size_t ChainedGroupStore::lookup_cost_probes(
    std::size_t t) const noexcept {
  // Modeled expected chain walk: mean bucket occupancy plus the head read.
  const LshTableChained& table = tables_[t];
  return 1 + table.size() / table.bucket_count();
}

std::size_t ChainedGroupStore::store_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const LshTableChained& t : tables_) {
    bytes += t.bucket_count() * sizeof(std::int64_t) +
             t.size() * (2 * sizeof(std::uint64_t) + sizeof(std::int64_t));
  }
  return bytes;
}

void ChainedGroupStore::serialize(util::ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(tables_.size()));
  for (const LshTableChained& table : tables_) table.serialize(out);
}

bool ChainedGroupStore::deserialize(util::ByteReader& in,
                                    std::uint64_t group_count) {
  const std::uint32_t tables = in.u32();
  if (!in.ok() || tables != tables_.size()) return false;
  for (LshTableChained& table : tables_) {
    auto restored = LshTableChained::deserialize(in, group_count);
    if (!restored.has_value()) return false;
    table = std::move(*restored);
  }
  return in.ok();
}

CuckooStats ChainedGroupStore::stats() const noexcept {
  CuckooStats total;
  for (const LshTableChained& t : tables_) {
    total.inserts += t.size();
    total.occupied_slots += t.size();
    total.capacity_slots += t.bucket_count();
  }
  return total;
}

}  // namespace fast::hash
