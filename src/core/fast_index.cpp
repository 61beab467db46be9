#include "core/fast_index.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "core/pipeline/factory.hpp"
#include "util/check.hpp"
#include "util/codec.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fast::core {

FastIndex::FastIndex(FastConfig config, vision::PcaModel pca)
    : front_(std::move(config), std::move(pca)),
      store_(pipeline::make_group_store(front_.config(), front_.table_count())),
      log_(front_.metrics()) {
  init_metrics();
}

void FastIndex::init_metrics() {
  util::MetricsRegistry& r = front_.metrics();
  m_.chs_group_hits = &r.counter("chs.group_hits");
  m_.chs_group_creates = &r.counter("chs.group_creates");
  m_.chs_rehash_events = &r.counter("chs.rehash_events");
  m_.chs_fingerprint_false_hits = &r.counter("chs.fingerprint_false_hits");
  m_.chs_load_factor = &r.gauge("chs.load_factor");
  m_.chs_occupied_slots = &r.gauge("chs.occupied_slots");
  m_.chs_capacity_slots = &r.gauge("chs.capacity_slots");
  m_.chs_insert_failures = &r.gauge("chs.insert_failures");
  m_.chs_total_kicks = &r.gauge("chs.total_kicks");
  m_.chs_max_kick_chain = &r.gauge("chs.max_kick_chain");
  m_.chs_store_bytes = &r.gauge("chs.store_bytes");
  m_.index_groups = &r.gauge("index.groups");
}

void FastIndex::publish_storage_gauges() {
  const hash::CuckooStats s = store_->stats();
  m_.chs_occupied_slots->set(static_cast<double>(s.occupied_slots));
  m_.chs_capacity_slots->set(static_cast<double>(s.capacity_slots));
  m_.chs_load_factor->set(s.capacity_slots == 0
                              ? 0.0
                              : static_cast<double>(s.occupied_slots) /
                                    static_cast<double>(s.capacity_slots));
  m_.chs_insert_failures->set(static_cast<double>(s.failures));
  m_.chs_total_kicks->set(static_cast<double>(s.total_kicks));
  m_.chs_max_kick_chain->set(static_cast<double>(s.max_kick_chain));
  m_.chs_store_bytes->set(static_cast<double>(store_->store_bytes()));
  front_.m().index_size->set(static_cast<double>(signatures_.size()));
  m_.index_groups->set(static_cast<double>(groups_.size()));
}

void FastIndex::calibrate_scale(
    std::span<const hash::SparseSignature> sample_queries,
    std::span<const hash::SparseSignature> corpus_sample,
    util::ThreadPool* pool) {
  FAST_CHECK_MSG(size() == 0, "calibrate before inserting");
  front_.calibrate_scale(sample_queries, corpus_sample, pool);
}

InsertResult FastIndex::insert(std::uint64_t id, const img::Image& image) {
  return front_.insert_image(*this, id, image);
}

InsertResult FastIndex::insert_signature(
    std::uint64_t id, const hash::SparseSignature& signature) {
  util::TraceSpan span("insert");
  // Log before apply: if the record cannot be made durable (append
  // throws), the in-memory state is untouched and recovery sees a
  // consistent prefix of acknowledged mutations.
  if (durable()) log_.append(storage::kWalRecordInsert, id, signature.encode());
  InsertResult result = apply_insert(id, signature);
  span.attr("rehash_events", static_cast<double>(result.rehashes));
  return result;
}

InsertResult FastIndex::apply_insert(
    std::uint64_t id, const hash::SparseSignature& signature) {
  InsertResult result;

  // Re-insert replaces (erase-then-insert): the stale signature leaves the
  // index and the id exits its old groups first, so it never appears twice
  // in a membership list and queries rank against the fresh signature.
  // (apply_erase, not erase: replay of this insert record redoes the
  // eviction, so it must not be logged separately.)
  if (signatures_.find(id) != signatures_.end()) apply_erase(id);

  const std::vector<std::uint64_t> keys =
      front_.insert_keys(signature, result.cost);
  const double ram_access_s = config().cost.ram_access_s;
  {
    util::TraceSpan place_span("chs.place");
    std::size_t slot_reads = 0;
    hash::ProbeProfile probe_profile;
    for (std::size_t t = 0; t < keys.size(); ++t) {
      std::size_t lookup_probes = 0;
      const auto group =
          store_->find(t, keys[t], &lookup_probes, &probe_profile);
      result.cost.charge_ram(ram_access_s, lookup_probes);
      slot_reads += lookup_probes;
      front_.m().chs_slot_reads->add(lookup_probes);
      if (group) {
        groups_[*group].push_back(id);
        m_.chs_group_hits->add();
      } else {
        const std::uint64_t group_id = groups_.size();
        groups_.emplace_back(std::vector<std::uint64_t>{id});
        const std::size_t events = store_->place(t, keys[t], group_id);
        result.rehashes += events;
        rehashes_ += events;
        if (events > 0) result.ok = false;
        result.cost.charge_ram(ram_access_s, store_->lookup_cost_probes(t));
        m_.chs_group_creates->add();
        m_.chs_rehash_events->add(events);
      }
    }
    place_span.attr("tables", static_cast<double>(keys.size()));
    place_span.attr("slot_reads", static_cast<double>(slot_reads));
    place_span.attr("rehash_events", static_cast<double>(result.rehashes));
    if (probe_profile.fingerprint_false_hits != 0) {
      m_.chs_fingerprint_false_hits->add(probe_profile.fingerprint_false_hits);
    }
  }
  signatures_.emplace(id, signature);
  front_.record_insert(result);
  publish_storage_gauges();
  return result;
}

std::vector<InsertResult> FastIndex::insert_batch(
    std::span<const BatchImage> items, util::ThreadPool* pool) {
  return front_.insert_batch(*this, items, pool);
}

bool FastIndex::erase(std::uint64_t id) {
  util::TraceSpan span("erase");
  // An unknown id is a no-op; logging it would bloat the WAL for nothing.
  if (signatures_.find(id) == signatures_.end()) return false;
  if (durable()) log_.append(storage::kWalRecordErase, id, {});
  return apply_erase(id);
}

bool FastIndex::apply_erase(std::uint64_t id) {
  const auto it = signatures_.find(id);
  if (it == signatures_.end()) return false;
  front_.m().erases->add();
  const std::vector<std::uint64_t> keys = front_.keys(it->second);
  for (std::size_t t = 0; t < keys.size(); ++t) {
    if (const auto group = store_->find(t, keys[t])) {
      auto& members = groups_[*group];
      members.erase(std::remove(members.begin(), members.end(), id),
                    members.end());
      // An emptied group's bucket key is dropped so queries stop probing
      // it. (Flat-cuckoo rebuild logs keep the mapping; a rebuilt table
      // would resurrect the key pointing at an empty group — harmless.)
      if (members.empty()) store_->erase_key(t, keys[t]);
    }
  }
  signatures_.erase(it);
  publish_storage_gauges();
  return true;
}

// --- Durability: snapshot + WAL ------------------------------------------

storage::SnapshotFile FastIndex::build_snapshot() const {
  storage::SnapshotFile snapshot;
  snapshot.config_fingerprint = config_fingerprint(config());
  snapshot.last_seq = log_.last_seq();

  util::ByteWriter params;
  params.f64(config().lsh_input_scale);
  params.u64(rehashes_);
  snapshot.sections.push_back({storage::kSectionParams, params.take()});

  // Signatures in id order: the image is a pure function of index content,
  // never of unordered_map iteration order.
  std::vector<std::uint64_t> ids;
  ids.reserve(signatures_.size());
  for (const auto& entry : signatures_) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  util::ByteWriter sigs;
  sigs.u64(ids.size());
  for (const std::uint64_t id : ids) {
    sigs.u64(id);
    sigs.blob(signatures_.at(id).encode());
  }
  snapshot.sections.push_back({storage::kSectionSignatures, sigs.take()});

  util::ByteWriter groups;
  groups.u64(groups_.size());
  for (const auto& members : groups_) {
    groups.u64(members.size());
    for (const std::uint64_t id : members) groups.u64(id);
  }
  snapshot.sections.push_back({storage::kSectionGroups, groups.take()});

  util::ByteWriter store;
  store_->serialize(store);
  // The compact backend publishes its store under a distinct section id so
  // readers built before it existed fail the section lookup outright (on
  // top of the chs_backend term in the config fingerprint).
  const std::uint32_t store_section =
      config().chs_backend == FastConfig::ChsBackend::kCompactFlatCuckoo
          ? storage::kSectionStoreCompact
          : storage::kSectionStore;
  snapshot.sections.push_back({store_section, store.take()});
  return snapshot;
}

bool FastIndex::restore_snapshot(const storage::SnapshotFile& snapshot) {
  const auto* params = snapshot.find(storage::kSectionParams);
  const auto* sigs = snapshot.find(storage::kSectionSignatures);
  const auto* groups = snapshot.find(storage::kSectionGroups);
  const auto* store = snapshot.find(
      config().chs_backend == FastConfig::ChsBackend::kCompactFlatCuckoo
          ? storage::kSectionStoreCompact
          : storage::kSectionStore);
  if (params == nullptr || sigs == nullptr || groups == nullptr ||
      store == nullptr) {
    return false;
  }

  util::ByteReader pr{std::span(params->payload)};
  const double input_scale = pr.f64();
  const std::uint64_t rehashes = pr.u64();
  if (!pr.ok()) return false;

  util::ByteReader sr{std::span(sigs->payload)};
  const std::uint64_t count = sr.u64();
  std::unordered_map<std::uint64_t, hash::SparseSignature> restored_sigs;
  restored_sigs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = sr.u64();
    const auto encoded = sr.blob();
    if (!sr.ok()) return false;
    try {
      hash::SparseSignature sig = hash::SparseSignature::decode(encoded);
      if (sig.bit_count() != config().bloom_bits) return false;
      restored_sigs.emplace(id, std::move(sig));
    } catch (const std::runtime_error&) {
      return false;
    }
  }

  util::ByteReader gr{std::span(groups->payload)};
  const std::uint64_t group_count = gr.u64();
  if (!gr.ok() || group_count > gr.remaining() / 8) return false;
  std::vector<std::vector<std::uint64_t>> restored_groups;
  restored_groups.reserve(group_count);
  for (std::uint64_t g = 0; g < group_count; ++g) {
    const std::uint64_t members = gr.u64();
    if (!gr.ok() || members > gr.remaining() / 8) return false;
    std::vector<std::uint64_t> list;
    list.reserve(members);
    for (std::uint64_t i = 0; i < members; ++i) list.push_back(gr.u64());
    restored_groups.push_back(std::move(list));
  }
  if (!gr.ok()) return false;

  util::ByteReader str{std::span(store->payload)};
  if (!store_->deserialize(str)) return false;

  signatures_ = std::move(restored_sigs);
  groups_ = std::move(restored_groups);
  rehashes_ = rehashes;
  front_.set_input_scale(input_scale);
  publish_storage_gauges();
  return true;
}

storage::Status FastIndex::save_snapshot() {
  if (!durable()) return DurableLog::not_durable();
  util::TraceSpan span("snapshot.save");
  util::WallTimer timer;
  return log_.publish(build_snapshot(), span, timer);
}

storage::StatusOr<FastIndex> FastIndex::open_or_recover(
    FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
    RecoveryStats* stats) {
  std::optional<FastIndex> index;
  RecoveryHooks hooks;
  hooks.restore = [&](const storage::SnapshotFile* snapshot) -> DurableLog* {
    FastIndex candidate(config, pca);
    if (snapshot != nullptr && !candidate.restore_snapshot(*snapshot)) {
      return nullptr;
    }
    index.emplace(std::move(candidate));
    return &index->log_;
  };
  hooks.apply = [&](std::uint64_t id, const hash::SparseSignature* sig) {
    if (sig != nullptr) {
      index->apply_insert(id, *sig);
    } else {
      index->apply_erase(id);
    }
  };
  storage::Status s = recover(config, opts, hooks, stats);
  if (!s.ok()) return s;
  return std::move(*index);
}

QueryResult FastIndex::query(const img::Image& image, std::size_t k) const {
  return front_.query_image(*this, image, k);
}

std::vector<QueryResult> FastIndex::query_batch(
    std::span<const img::Image* const> images, std::size_t k,
    util::ThreadPool* pool) const {
  return front_.query_batch(*this, images, k, pool);
}

QueryResult FastIndex::query_signature(const hash::SparseSignature& signature,
                                       std::size_t k) const {
  // Collect candidates from the home bucket plus the probe buckets of
  // every table. Each flat-addressed lookup is a fixed bounded slot read;
  // the per-table work items are independent (Fig. 7 parallelism).
  std::unordered_set<std::uint64_t> candidate_ids;
  const auto probe = [&](const QueryKeys& q, QueryResult& result) {
    std::size_t slot_reads_total = 0;
    hash::ProbeProfile probe_profile;
    {
      util::TraceSpan probe_span("chs.probe");
      for (std::size_t t = 0; t < q.keys.size(); ++t) {
        std::size_t table_slot_reads = 0;
        auto probe_bucket = [&](std::uint64_t key) {
          ++result.bucket_probes;
          std::size_t lookup_probes = 0;
          if (const auto group =
                  store_->find(t, key, &lookup_probes, &probe_profile)) {
            for (const std::uint64_t id : groups_[*group]) {
              candidate_ids.insert(id);
            }
          }
          table_slot_reads += lookup_probes;
        };
        probe_bucket(q.keys[t]);
        for (const std::uint64_t pk : q.probes[t]) probe_bucket(pk);
        front_.charge_table(result, q.table_hash_s, table_slot_reads);
        slot_reads_total += table_slot_reads;
      }
      probe_span.attr("bucket_probes",
                      static_cast<double>(result.bucket_probes));
      probe_span.attr("slot_reads", static_cast<double>(slot_reads_total));
      probe_span.attr("candidates", static_cast<double>(candidate_ids.size()));
    }
    if (probe_profile.fingerprint_false_hits != 0) {
      m_.chs_fingerprint_false_hits->add(probe_profile.fingerprint_false_hits);
    }
    return slot_reads_total;
  };
  // Rank candidates by signature similarity (sparse-domain Jaccard).
  const auto score = [&](QueryResult& result) {
    result.hits.reserve(candidate_ids.size());
    for (const std::uint64_t id : candidate_ids) {
      const auto it = signatures_.find(id);
      FAST_CHECK(it != signatures_.end());
      result.hits.push_back(
          ScoredId{id, hash::SparseSignature::jaccard(signature, it->second)});
    }
  };
  return front_.query(signature, k, probe, score);
}

const hash::SparseSignature* FastIndex::signature_of(std::uint64_t id) const {
  const auto it = signatures_.find(id);
  return it == signatures_.end() ? nullptr : &it->second;
}

std::size_t FastIndex::index_bytes() const {
  std::size_t bytes = 0;
  for (const auto& [id, sig] : signatures_) {
    bytes += sizeof(id) + sig.storage_bytes();
  }
  bytes += store_->store_bytes();
  for (const auto& group : groups_) {
    bytes += sizeof(std::uint64_t) * group.size() + sizeof(std::uint64_t);
  }
  bytes += front_.param_bytes();
  return bytes;
}

hash::CuckooStats FastIndex::cuckoo_stats() const {
  return store_->stats();
}

}  // namespace fast::core
