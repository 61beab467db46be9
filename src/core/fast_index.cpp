#include "core/fast_index.hpp"

#include <optional>

#include "util/check.hpp"
#include "util/codec.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fast::core {

FastIndex::FastIndex(FastConfig config, vision::PcaModel pca)
    : front_(std::move(config), std::move(pca)),
      core_(front_.config(), front_.table_count()),
      log_(front_.metrics()) {
  init_metrics();
}

void FastIndex::init_metrics() {
  util::MetricsRegistry& r = front_.metrics();
  m_.chs_group_hits = &r.counter("chs.group_hits");
  m_.chs_group_creates = &r.counter("chs.group_creates");
  m_.chs_rehash_events = &r.counter("chs.rehash_events");
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
  const hash::CuckooStats s = core_.store().stats();
  m_.chs_occupied_slots->set(static_cast<double>(s.occupied_slots));
  m_.chs_capacity_slots->set(static_cast<double>(s.capacity_slots));
  m_.chs_load_factor->set(s.capacity_slots == 0
                              ? 0.0
                              : static_cast<double>(s.occupied_slots) /
                                    static_cast<double>(s.capacity_slots));
  m_.chs_insert_failures->set(static_cast<double>(s.failures));
  m_.chs_total_kicks->set(static_cast<double>(s.total_kicks));
  m_.chs_max_kick_chain->set(static_cast<double>(s.max_kick_chain));
  m_.chs_store_bytes->set(static_cast<double>(core_.store().store_bytes()));
  front_.m().index_size->set(static_cast<double>(core_.size()));
  m_.index_groups->set(static_cast<double>(core_.group_count()));
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
  if (core_.contains(id)) apply_erase(id);

  const std::vector<std::uint64_t> keys =
      front_.insert_keys(signature, result.cost);
  {
    util::TraceSpan place_span("chs.place");
    const GroupIndex::Placement placed = core_.place(id, signature, keys);
    const double ram_access_s = config().cost.ram_access_s;
    for (const std::size_t reads : placed.ram_reads) {
      result.cost.charge_ram(ram_access_s, reads);
    }
    result.rehashes = placed.rehashes;
    rehashes_ += placed.rehashes;
    if (placed.rehashes > 0) result.ok = false;
    front_.m().chs_slot_reads->add(placed.slot_reads);
    m_.chs_group_hits->add(placed.group_hits);
    m_.chs_group_creates->add(placed.group_creates);
    m_.chs_rehash_events->add(placed.rehashes);
    place_span.attr("tables", static_cast<double>(keys.size()));
    place_span.attr("slot_reads", static_cast<double>(placed.slot_reads));
    place_span.attr("rehash_events", static_cast<double>(result.rehashes));
  }
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
  if (!core_.contains(id)) return false;
  if (durable()) log_.append(storage::kWalRecordErase, id, {});
  return apply_erase(id);
}

bool FastIndex::apply_erase(std::uint64_t id) {
  const hash::SparseSignature* sig = core_.signature_of(id);
  if (sig == nullptr) return false;
  front_.m().erases->add();
  core_.remove(id, front_.keys(*sig));
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

  // Each payload is a pure function of index content (signatures in id
  // order), never of unordered_map iteration order.
  util::ByteWriter sigs;
  core_.write_signatures(sigs);
  snapshot.sections.push_back({storage::kSectionSignatures, sigs.take()});
  util::ByteWriter groups;
  core_.write_groups(groups);
  snapshot.sections.push_back({storage::kSectionGroups, groups.take()});
  util::ByteWriter store;
  core_.write_store(store);
  snapshot.sections.push_back({storage::kSectionStore, store.take()});
  return snapshot;
}

bool FastIndex::restore_snapshot(const storage::SnapshotFile& snapshot) {
  const auto* params = snapshot.find(storage::kSectionParams);
  const auto* sigs = snapshot.find(storage::kSectionSignatures);
  const auto* groups = snapshot.find(storage::kSectionGroups);
  const auto* store = snapshot.find(storage::kSectionStore);
  if (params == nullptr || sigs == nullptr || groups == nullptr ||
      store == nullptr) {
    return false;
  }

  util::ByteReader pr{std::span(params->payload)};
  const double input_scale = pr.f64();
  const std::uint64_t rehashes = pr.u64();
  if (!pr.ok()) return false;

  // This index is a fresh candidate (open_or_recover discards it on false).
  util::ByteReader sr{std::span(sigs->payload)};
  util::ByteReader gr{std::span(groups->payload)};
  util::ByteReader str{std::span(store->payload)};
  if (!core_.read_signatures(sr) || !core_.read_groups(gr) ||
      !core_.read_store(str)) {
    return false;
  }
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
  std::vector<std::uint64_t> candidate_ids;
  const auto probe = [&](const QueryKeys& q, QueryResult& result) {
    std::size_t slot_reads_total = 0;
    util::TraceSpan probe_span("chs.probe");
    for (std::size_t t = 0; t < q.keys.size(); ++t) {
      std::size_t table_slot_reads = 0;
      ++result.bucket_probes;
      core_.collect(t, q.keys[t], candidate_ids, &table_slot_reads);
      for (const std::uint64_t pk : q.probes[t]) {
        ++result.bucket_probes;
        core_.collect(t, pk, candidate_ids, &table_slot_reads);
      }
      front_.charge_table(result, q.table_hash_s, table_slot_reads);
      slot_reads_total += table_slot_reads;
    }
    sort_unique(candidate_ids);
    probe_span.attr("bucket_probes", static_cast<double>(result.bucket_probes));
    probe_span.attr("slot_reads", static_cast<double>(slot_reads_total));
    probe_span.attr("candidates", static_cast<double>(candidate_ids.size()));
    return slot_reads_total;
  };
  // Rank candidates by signature similarity: exact Jaccard through one
  // dense bitset of the query, probed with each candidate's set bits.
  const auto score = [&](QueryResult& result) {
    const hash::SparseSignature::DenseQuery dense(signature);
    result.hits.reserve(candidate_ids.size());
    for (const std::uint64_t id : candidate_ids) {
      const hash::SparseSignature* stored = core_.signature_of(id);
      FAST_CHECK(stored != nullptr);
      result.hits.push_back(ScoredId{id, dense.jaccard(*stored)});
    }
  };
  return front_.query(signature, k, probe, score);
}

}  // namespace fast::core
