#include "hash/lsh_table_chained.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace fast::hash {

LshTableChained::LshTableChained(std::size_t buckets, std::uint64_t seed)
    : heads_(std::max<std::size_t>(buckets, 1), -1), salt_(mix64(seed)) {}

void LshTableChained::insert(std::uint64_t key, std::uint64_t value) {
  const std::size_t b = bucket_of(key);
  nodes_.push_back(Node{key, value, heads_[b]});
  heads_[b] = static_cast<std::int64_t>(nodes_.size() - 1);
  ++size_;
}

bool LshTableChained::erase(std::uint64_t key) noexcept {
  const std::size_t b = bucket_of(key);
  std::int64_t prev = -1;
  for (std::int64_t i = heads_[b]; i >= 0;
       prev = i, i = nodes_[static_cast<std::size_t>(i)].next) {
    const Node& n = nodes_[static_cast<std::size_t>(i)];
    if (n.key != key) continue;
    if (prev < 0) {
      heads_[b] = n.next;
    } else {
      nodes_[static_cast<std::size_t>(prev)].next = n.next;
    }
    --size_;
    return true;
  }
  return false;
}

std::vector<std::uint64_t> LshTableChained::find(std::uint64_t key,
                                                 std::size_t* probes) const {
  std::vector<std::uint64_t> out;
  std::size_t walked = 0;
  for (std::int64_t i = heads_[bucket_of(key)]; i >= 0;
       i = nodes_[static_cast<std::size_t>(i)].next) {
    const Node& n = nodes_[static_cast<std::size_t>(i)];
    ++walked;
    if (n.key == key) out.push_back(n.value);
  }
  if (probes != nullptr) *probes = walked;
  return out;
}

std::size_t LshTableChained::chain_length(std::uint64_t key) const noexcept {
  std::size_t len = 0;
  for (std::int64_t i = heads_[bucket_of(key)]; i >= 0;
       i = nodes_[static_cast<std::size_t>(i)].next) {
    ++len;
  }
  return len;
}

std::size_t LshTableChained::max_chain_length() const noexcept {
  std::size_t best = 0;
  for (std::int64_t head : heads_) {
    std::size_t len = 0;
    for (std::int64_t i = head; i >= 0;
         i = nodes_[static_cast<std::size_t>(i)].next) {
      ++len;
    }
    best = std::max(best, len);
  }
  return best;
}

void LshTableChained::serialize(util::ByteWriter& out) const {
  out.u64(heads_.size());
  out.u64(nodes_.size());
  out.u64(salt_);
  out.u64(size_);
  for (const std::int64_t head : heads_) {
    out.u64(static_cast<std::uint64_t>(head));
  }
  for (const Node& node : nodes_) {
    out.u64(node.key);
    out.u64(node.value);
    out.u64(static_cast<std::uint64_t>(node.next));
  }
}

std::optional<LshTableChained> LshTableChained::deserialize(
    util::ByteReader& in, std::uint64_t value_limit) {
  LshTableChained table;
  const std::uint64_t buckets = in.u64();
  const std::uint64_t nodes = in.u64();
  table.salt_ = in.u64();
  table.size_ = in.u64();
  if (!in.ok() || buckets == 0 ||
      buckets > in.remaining() / 8 ||
      nodes > (in.remaining() - buckets * 8) / 24) {
    return std::nullopt;
  }
  // A link is -1 (end of chain) or a node index below `bound`.
  const auto valid_link = [](std::int64_t link, std::uint64_t bound) {
    return link >= -1 && link < static_cast<std::int64_t>(bound);
  };
  table.heads_.resize(buckets);
  for (std::int64_t& head : table.heads_) {
    head = static_cast<std::int64_t>(in.u64());
    if (!valid_link(head, nodes)) return std::nullopt;
  }
  table.nodes_.resize(nodes);
  for (std::uint64_t i = 0; i < nodes; ++i) {
    Node& node = table.nodes_[i];
    node.key = in.u64();
    node.value = in.u64();
    node.next = static_cast<std::int64_t>(in.u64());
    if (!valid_link(node.next, i) || node.value >= value_limit) {
      return std::nullopt;
    }
  }
  if (!in.ok() || table.size_ > nodes) return std::nullopt;
  return table;
}

}  // namespace fast::hash
