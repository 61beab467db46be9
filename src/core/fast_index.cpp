#include "core/fast_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "core/pipeline/factory.hpp"
#include "util/check.hpp"
#include "util/codec.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fast::core {

FastIndex::FastIndex(FastConfig config, vision::PcaModel pca)
    : FastIndex(config, pipeline::make_summarizer(config, std::move(pca)),
                pipeline::make_aggregator(config), nullptr) {}

FastIndex::FastIndex(FastConfig config,
                     std::unique_ptr<pipeline::Summarizer> summarizer,
                     std::unique_ptr<pipeline::SemanticAggregator> aggregator,
                     std::unique_ptr<pipeline::GroupStore> store)
    : config_(std::move(config)), summarizer_(std::move(summarizer)),
      aggregator_(std::move(aggregator)), store_(std::move(store)) {
  FAST_CHECK_MSG(config_.lsh.dim == config_.bloom_bits,
                 "LSH input dim must equal the Bloom summary width");
  FAST_CHECK_MSG(summarizer_ != nullptr && aggregator_ != nullptr,
                 "pipeline stages must be non-null");
  FAST_CHECK_MSG(summarizer_->signature_bits() == config_.bloom_bits,
                 "summarizer width must match the configured Bloom width");
  if (store_ == nullptr) {
    store_ = pipeline::make_group_store(config_, aggregator_->table_count());
  }
  FAST_CHECK_MSG(store_->table_count() == aggregator_->table_count(),
                 "SA and CHS stages must agree on the table count");
  init_metrics();
}

void FastIndex::init_metrics() {
  metrics_ = std::make_shared<util::MetricsRegistry>();
  util::MetricsRegistry& r = *metrics_;
  m_.fe_sm_images = &r.counter("fe_sm.images");
  m_.fe_sm_summarize_s = &r.latency_histogram("fe_sm.summarize_s");
  m_.inserts = &r.counter("index.inserts");
  m_.erases = &r.counter("index.erases");
  m_.queries = &r.counter("index.queries");
  m_.insert_sim_s = &r.latency_histogram("index.insert_sim_s");
  m_.query_sim_s = &r.latency_histogram("index.query_sim_s");
  m_.sa_keys_derived = &r.counter("sa.keys_derived");
  m_.sa_insert_hash_ops = &r.counter("sa.insert_hash_ops");
  m_.sa_keys_wall_s = &r.latency_histogram("sa.keys_wall_s");
  m_.sa_probe_keys = &r.count_histogram("sa.probe_keys_per_query");
  m_.chs_group_hits = &r.counter("chs.group_hits");
  m_.chs_group_creates = &r.counter("chs.group_creates");
  m_.chs_rehash_events = &r.counter("chs.rehash_events");
  m_.chs_slot_reads = &r.counter("chs.slot_reads");
  m_.chs_fingerprint_false_hits = &r.counter("chs.fingerprint_false_hits");
  m_.chs_bucket_probes = &r.count_histogram("chs.bucket_probes_per_query");
  m_.chs_candidates = &r.count_histogram("chs.candidates_per_query");
  m_.chs_load_factor = &r.gauge("chs.load_factor");
  m_.chs_occupied_slots = &r.gauge("chs.occupied_slots");
  m_.chs_capacity_slots = &r.gauge("chs.capacity_slots");
  m_.chs_insert_failures = &r.gauge("chs.insert_failures");
  m_.chs_total_kicks = &r.gauge("chs.total_kicks");
  m_.chs_max_kick_chain = &r.gauge("chs.max_kick_chain");
  m_.chs_store_bytes = &r.gauge("chs.store_bytes");
  m_.index_size = &r.gauge("index.size");
  m_.index_groups = &r.gauge("index.groups");
  m_.wal_appends = &r.counter("wal.appends");
  m_.wal_bytes = &r.counter("wal.bytes");
  m_.wal_syncs = &r.counter("wal.syncs");
  m_.snapshot_write_s = &r.latency_histogram("snapshot.write_s");
  m_.snapshot_bytes = &r.gauge("snapshot.bytes");
  m_.recovery_replayed_records = &r.counter("recovery.replayed_records");
  m_.recovery_snapshots_skipped = &r.counter("recovery.snapshots_skipped");
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
  m_.index_size->set(static_cast<double>(signatures_.size()));
  m_.index_groups->set(static_cast<double>(groups_.size()));
}

hash::SparseSignature FastIndex::summarize(const img::Image& image) const {
  util::TraceSpan span("fe_sm.summarize");
  util::WallTimer timer;
  hash::SparseSignature sig = summarizer_->summarize(image);
  m_.fe_sm_images->add();
  m_.fe_sm_summarize_s->observe(timer.elapsed_seconds());
  return sig;
}

sim::SimClock FastIndex::frontend_insert_cost() const noexcept {
  sim::SimClock clock;
  clock.charge(config_.feature_extract_s);
  // Bloom hashing cost: k hash ops per descriptor group.
  clock.charge_hash(config_.cost.hash_op_s,
                    config_.max_keypoints * config_.bloom_hashes);
  return clock;
}

void FastIndex::calibrate_scale(
    std::span<const hash::SparseSignature> sample_queries,
    std::span<const hash::SparseSignature> corpus_sample,
    util::ThreadPool* pool) {
  FAST_CHECK_MSG(size() == 0, "calibrate before inserting");
  if (sample_queries.empty() || corpus_sample.empty()) return;
  // The paper tunes R to the typical distance between a queried point and
  // its nearest neighbor (§IV-A2, the sampling method of the original LSH
  // study). We measure exactly that — each sample query's NN distance in
  // the corpus sample — and choose the LSH input scale that places the
  // median of those distances at calibrate_target * omega. The per-query
  // scans share no state, so the O(Q*C) sweep fans across the pool.
  std::vector<double> best(sample_queries.size());
  const auto nn_of = [&](std::size_t i) {
    double b = std::numeric_limits<double>::infinity();
    for (const auto& c : corpus_sample) {
      const double d = static_cast<double>(
          hash::SparseSignature::hamming(sample_queries[i], c));
      b = std::min(b, d);
    }
    best[i] = b;
  };
  if (pool != nullptr && sample_queries.size() > 1) {
    pool->parallel_for(sample_queries.size(), nn_of);
  } else {
    for (std::size_t i = 0; i < sample_queries.size(); ++i) nn_of(i);
  }
  // Collect in query order so the median is identical either way.
  std::vector<double> nn;
  nn.reserve(best.size());
  for (const double b : best) {
    if (std::isfinite(b)) nn.push_back(std::sqrt(b));
  }
  FAST_CHECK(!nn.empty());
  std::nth_element(nn.begin(), nn.begin() + nn.size() / 2, nn.end());
  const double median_nn = std::max(nn[nn.size() / 2], 1.0);
  config_.lsh_input_scale =
      config_.calibrate_target * config_.lsh.omega / median_nn;
  aggregator_->set_input_scale(config_.lsh_input_scale);
}

InsertResult FastIndex::insert(std::uint64_t id, const img::Image& image) {
  util::TraceSpan span("insert.image");
  const hash::SparseSignature sig = summarize(image);
  InsertResult stored = insert_signature(id, sig);
  stored.cost.merge(frontend_insert_cost());
  return stored;
}

InsertResult FastIndex::insert_signature(
    std::uint64_t id, const hash::SparseSignature& signature) {
  util::TraceSpan span("insert");
  // Log before apply: if the record cannot be made durable (wal_log
  // throws), the in-memory state is untouched and recovery sees a
  // consistent prefix of acknowledged mutations.
  if (durable()) wal_log(storage::kWalRecordInsert, id, signature.encode());
  InsertResult result = apply_insert(id, signature);
  span.attr("rehash_events", static_cast<double>(result.rehashes));
  return result;
}

InsertResult FastIndex::apply_insert(
    std::uint64_t id, const hash::SparseSignature& signature) {
  InsertResult result;
  FAST_CHECK(signature.bit_count() == config_.bloom_bits);

  // Re-insert replaces (erase-then-insert): the stale signature leaves the
  // index and the id exits its old groups first, so it never appears twice
  // in a membership list and queries rank against the fresh signature.
  // (apply_erase, not erase: replay of this insert record redoes the
  // eviction, so it must not be logged separately.)
  if (signatures_.find(id) != signatures_.end()) apply_erase(id);

  // SA hashing cost: p-stable projections or minwise passes, in the
  // aggregator's cost domain.
  const std::size_t sa_ops = aggregator_->insert_hash_ops(signature);
  if (aggregator_->cost_domain() ==
      pipeline::SemanticAggregator::CostDomain::kFlops) {
    result.cost.charge_flops(config_.cost.flop_s, sa_ops);
  } else {
    result.cost.charge_hash(config_.cost.mix_op_s, sa_ops);
  }

  util::WallTimer keys_timer;
  std::vector<std::uint64_t> keys;
  {
    util::TraceSpan keys_span("sa.keys");
    keys = aggregator_->keys(signature, nullptr);
    keys_span.attr("keys", static_cast<double>(keys.size()));
  }
  m_.sa_keys_wall_s->observe(keys_timer.elapsed_seconds());
  m_.sa_keys_derived->add(keys.size());
  m_.sa_insert_hash_ops->add(sa_ops);
  {
    util::TraceSpan place_span("chs.place");
    std::size_t slot_reads = 0;
    hash::ProbeProfile probe_profile;
    for (std::size_t t = 0; t < keys.size(); ++t) {
      std::size_t lookup_probes = 0;
      const auto group =
          store_->find(t, keys[t], &lookup_probes, &probe_profile);
      result.cost.charge_ram(config_.cost.ram_access_s, lookup_probes);
      slot_reads += lookup_probes;
      m_.chs_slot_reads->add(lookup_probes);
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
        result.cost.charge_ram(config_.cost.ram_access_s,
                               store_->lookup_cost_probes(t));
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
  m_.inserts->add();
  m_.insert_sim_s->observe(result.cost.elapsed_s());
  publish_storage_gauges();
  return result;
}

std::vector<hash::SparseSignature> FastIndex::summarize_batch(
    std::span<const img::Image* const> images, util::ThreadPool* pool) const {
  std::vector<hash::SparseSignature> sigs(images.size());
  if (pool != nullptr && images.size() > 1) {
    pool->parallel_for(images.size(), [&](std::size_t i) {
      sigs[i] = summarize(*images[i]);
    });
  } else {
    for (std::size_t i = 0; i < images.size(); ++i) {
      sigs[i] = summarize(*images[i]);
    }
  }
  return sigs;
}

std::vector<InsertResult> FastIndex::insert_batch(
    std::span<const BatchImage> items, util::ThreadPool* pool) {
  // Stage split: FE+SM for the whole batch first (embarrassingly parallel,
  // no index state touched), then placement in item order — the same final
  // state and per-item costs as sequential insert() calls.
  std::vector<const img::Image*> images(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) images[i] = items[i].image;
  const std::vector<hash::SparseSignature> sigs =
      summarize_batch(images, pool);

  util::TraceSpan span("insert_batch.place");
  span.attr("items", static_cast<double>(items.size()));
  std::vector<InsertResult> results;
  results.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    InsertResult stored = insert_signature(items[i].id, sigs[i]);
    stored.cost.merge(frontend_insert_cost());
    results.push_back(std::move(stored));
  }
  return results;
}

bool FastIndex::erase(std::uint64_t id) {
  util::TraceSpan span("erase");
  // An unknown id is a no-op; logging it would bloat the WAL for nothing.
  if (signatures_.find(id) == signatures_.end()) return false;
  if (durable()) wal_log(storage::kWalRecordErase, id, {});
  return apply_erase(id);
}

bool FastIndex::apply_erase(std::uint64_t id) {
  const auto it = signatures_.find(id);
  if (it == signatures_.end()) return false;
  m_.erases->add();
  util::WallTimer keys_timer;
  std::vector<std::uint64_t> keys;
  {
    util::TraceSpan keys_span("sa.keys");
    keys = aggregator_->keys(it->second, nullptr);
    keys_span.attr("keys", static_cast<double>(keys.size()));
  }
  m_.sa_keys_wall_s->observe(keys_timer.elapsed_seconds());
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

namespace {

void fp_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;  // FNV-1a 64-bit prime
  }
}

void fp_mix_f64(std::uint64_t& h, double v) {
  fp_mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t config_fingerprint(const FastConfig& c) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit offset basis
  fp_mix(h, c.bloom_bits);
  fp_mix(h, c.bloom_hashes);
  fp_mix(h, c.quantize_group_dims);
  fp_mix_f64(h, static_cast<double>(c.quantize_cell));
  fp_mix_f64(h, c.spatial_cell_px);
  fp_mix(h, static_cast<std::uint64_t>(c.sa_backend));
  fp_mix(h, c.lsh.dim);
  fp_mix(h, c.lsh.tables);
  fp_mix(h, c.lsh.hashes_per_table);
  fp_mix_f64(h, c.lsh.omega);
  fp_mix(h, c.lsh.seed);
  fp_mix(h, c.minhash.bands);
  fp_mix(h, c.minhash.band_size);
  fp_mix(h, c.minhash.seed);
  fp_mix(h, c.minhash_multiprobe ? 1 : 0);
  fp_mix(h, static_cast<std::uint64_t>(c.probe_depth));
  fp_mix(h, static_cast<std::uint64_t>(c.chs_backend));
  fp_mix(h, c.cuckoo.capacity);
  fp_mix(h, c.cuckoo.window);
  fp_mix(h, c.cuckoo.max_kicks);
  fp_mix(h, c.cuckoo.seed);
  fp_mix(h, c.chained_buckets);
  // Tiered directories carry a manifest + per-segment sections that a flat
  // open cannot interpret (and vice versa), so the layout flavor is part of
  // the fingerprint. Mixed only when enabled to keep every pre-tier
  // fingerprint (golden fixtures, existing directories) unchanged.
  if (c.tier.enabled) fp_mix(h, 0x7157);
  return h;
}

storage::Status FastIndex::sync_wal() {
  if (!durable() || appends_since_sync_ == 0) return storage::Status{};
  storage::Status s = wal_->sync();
  if (s.ok()) {
    appends_since_sync_ = 0;
    m_.wal_syncs->add();
  }
  return s;
}

void FastIndex::wal_log(std::uint8_t type, std::uint64_t id,
                        std::span<const std::uint8_t> payload) {
  const std::uint64_t seq = wal_->next_seq();
  storage::Status s = wal_->append(type, id, payload);
  if (s.ok() && ++appends_since_sync_ >= wal_sync_every_) {
    s = wal_->sync();
    if (s.ok()) {
      appends_since_sync_ = 0;
      m_.wal_syncs->add();
    }
  }
  if (!s.ok()) throw storage::IoError(std::move(s));
  m_.wal_appends->add();
  // Frame overhead (crc + len) plus the fixed body prefix (seq, type, id).
  m_.wal_bytes->add(4 + 4 + 8 + 1 + 8 + payload.size());
  last_seq_ = seq;
}

storage::SnapshotFile FastIndex::build_snapshot() const {
  storage::SnapshotFile snapshot;
  snapshot.config_fingerprint = config_fingerprint(config_);
  snapshot.last_seq = last_seq_;

  util::ByteWriter params;
  params.f64(config_.lsh_input_scale);
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
      config_.chs_backend == FastConfig::ChsBackend::kCompactFlatCuckoo
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
      config_.chs_backend == FastConfig::ChsBackend::kCompactFlatCuckoo
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
      if (sig.bit_count() != config_.bloom_bits) return false;
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
  config_.lsh_input_scale = input_scale;
  aggregator_->set_input_scale(input_scale);
  publish_storage_gauges();
  return true;
}

storage::Status FastIndex::save_snapshot() {
  if (!durable()) {
    return storage::Status::error(storage::StatusCode::kIoError,
                                  "save_snapshot on a non-durable index");
  }
  util::TraceSpan span("snapshot.save");
  util::WallTimer timer;
  const storage::SnapshotFile snapshot = build_snapshot();
  auto published = storage::write_snapshot(*env_, dir_, snapshot);
  if (!published.ok()) return published.status();

  std::size_t image_bytes = 32;  // header
  for (const auto& section : snapshot.sections) {
    image_bytes += 12 + section.payload.size();
  }
  span.attr("bytes", static_cast<double>(image_bytes + 12));
  m_.snapshot_bytes->set(static_cast<double>(image_bytes + 12));
  m_.snapshot_write_s->observe(timer.elapsed_seconds());

  // Rotate the log and retire files covered by the retained previous
  // generation (shared with the tiered index; see rotate_wal_and_retire).
  storage::Status rotated =
      storage::rotate_wal_and_retire(*env_, dir_, last_seq_, &wal_);
  if (!rotated.ok()) return rotated;
  appends_since_sync_ = 0;
  return storage::Status{};
}

storage::StatusOr<FastIndex> FastIndex::open_or_recover(
    FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
    RecoveryStats* stats_out) {
  util::TraceSpan span("recovery.open");
  RecoveryStats stats;
  storage::Env& env =
      opts.env != nullptr ? *opts.env : storage::Env::posix();
  storage::Status s = env.make_dirs(opts.dir);
  if (!s.ok()) return s;
  auto names = env.list_dir(opts.dir);
  if (!names.ok()) return names.status();

  std::vector<std::uint64_t> snapshot_seqs;
  std::vector<std::uint64_t> wal_seqs;
  for (const std::string& name : names.value()) {
    std::uint64_t seq = 0;
    if (storage::parse_snapshot_file_name(name, &seq)) {
      snapshot_seqs.push_back(seq);
    } else if (storage::parse_wal_segment_name(name, &seq)) {
      wal_seqs.push_back(seq);
    }
    // Anything else (.tmp images from interrupted writes, stray files) is
    // ignored; a crashed snapshot write must not affect recovery.
  }
  std::sort(snapshot_seqs.rbegin(), snapshot_seqs.rend());  // newest first
  std::sort(wal_seqs.begin(), wal_seqs.end());

  const std::uint64_t want_fingerprint = config_fingerprint(config);
  std::optional<FastIndex> index;
  for (const std::uint64_t seq : snapshot_seqs) {
    const std::string path = opts.dir + "/" + storage::snapshot_file_name(seq);
    auto snapshot = storage::read_snapshot(env, path);
    if (!snapshot.ok()) {
      switch (snapshot.status().code()) {
        case storage::StatusCode::kCorrupt:
        case storage::StatusCode::kBadMagic:
          // Damaged image: fall back to the previous snapshot (its WAL
          // segments were only deleted after THIS one was fully published,
          // so an older snapshot plus surviving segments is still exact).
          ++stats.snapshots_skipped;
          continue;
        default:
          return snapshot.status();  // kBadVersion / filesystem trouble
      }
    }
    if (snapshot.value().config_fingerprint != want_fingerprint) {
      return storage::Status::error(
          storage::StatusCode::kConfigMismatch,
          "snapshot " + path +
              " was written under a different pipeline geometry");
    }
    FastIndex candidate(config, pca);
    if (!candidate.restore_snapshot(snapshot.value())) {
      ++stats.snapshots_skipped;
      continue;
    }
    candidate.last_seq_ = snapshot.value().last_seq;
    stats.loaded_snapshot = true;
    stats.snapshot_seq = snapshot.value().last_seq;
    index.emplace(std::move(candidate));
    break;
  }
  if (!index.has_value()) index.emplace(FastIndex(config, pca));

  for (const std::uint64_t seq : wal_seqs) {
    const std::string path = opts.dir + "/" + storage::wal_segment_name(seq);
    auto segment = storage::read_wal_segment(env, path);
    if (!segment.ok()) return segment.status();
    ++stats.segments_scanned;
    if (segment.value().torn) stats.wal_torn = true;
    for (const storage::WalRecord& record : segment.value().records) {
      if (record.seq <= index->last_seq_) continue;  // inside the snapshot
      if (record.seq != index->last_seq_ + 1) {
        return storage::Status::error(
            storage::StatusCode::kCorrupt,
            "WAL gap: expected seq " + std::to_string(index->last_seq_ + 1) +
                ", segment " + path + " continues at " +
                std::to_string(record.seq));
      }
      switch (record.type) {
        case storage::kWalRecordInsert: {
          try {
            hash::SparseSignature sig =
                hash::SparseSignature::decode(record.payload);
            if (sig.bit_count() != index->config_.bloom_bits) {
              return storage::Status::error(
                  storage::StatusCode::kCorrupt,
                  "WAL insert payload has the wrong signature width");
            }
            index->apply_insert(record.id, sig);
          } catch (const std::runtime_error& e) {
            return storage::Status::error(
                storage::StatusCode::kCorrupt,
                std::string("undecodable WAL insert payload: ") + e.what());
          }
          break;
        }
        case storage::kWalRecordErase:
          index->apply_erase(record.id);
          break;
        default:
          return storage::Status::error(
              storage::StatusCode::kCorrupt,
              "unknown WAL record type " + std::to_string(record.type));
      }
      index->last_seq_ = record.seq;
      ++stats.replayed_records;
    }
  }
  index->m_.recovery_replayed_records->add(stats.replayed_records);
  index->m_.recovery_snapshots_skipped->add(stats.snapshots_skipped);
  span.attr("replayed_records", static_cast<double>(stats.replayed_records));
  span.attr("snapshots_skipped", static_cast<double>(stats.snapshots_skipped));
  span.attr("segments_scanned", static_cast<double>(stats.segments_scanned));

  auto writer = storage::WalWriter::create(env, opts.dir,
                                           index->last_seq_ + 1);
  if (!writer.ok()) return writer.status();
  index->env_ = &env;
  index->dir_ = opts.dir;
  index->wal_sync_every_ = std::max<std::size_t>(opts.wal_sync_every, 1);
  index->wal_ = std::move(writer).value();
  if (stats_out != nullptr) *stats_out = stats;
  return std::move(*index);
}

QueryResult FastIndex::query(const img::Image& image, std::size_t k) const {
  util::TraceSpan span("query.image");
  return query_summarized(summarize(image), k);
}

QueryResult FastIndex::query_summarized(const hash::SparseSignature& signature,
                                        std::size_t k) const {
  QueryResult result = query_signature(signature, k);
  result.cost.merge(frontend_insert_cost());
  // Feature extraction parallelizes across interest points: expose it as
  // max_keypoints independent task chunks for the multicore model.
  const double fe_chunk =
      config_.feature_extract_s / static_cast<double>(config_.max_keypoints);
  for (std::size_t i = 0; i < config_.max_keypoints; ++i) {
    result.parallel_tasks.push_back(fe_chunk);
  }
  return result;
}

std::vector<QueryResult> FastIndex::query_batch(
    std::span<const img::Image* const> images, std::size_t k,
    util::ThreadPool* pool) const {
  // The whole per-query pipeline (FE+SM+probe+rank) is read-only, so the
  // batch fans complete queries across the pool, not just summarization.
  std::vector<QueryResult> results(images.size());
  if (pool != nullptr && images.size() > 1) {
    pool->parallel_for(images.size(), [&](std::size_t i) {
      results[i] = query(*images[i], k);
    });
  } else {
    for (std::size_t i = 0; i < images.size(); ++i) {
      results[i] = query(*images[i], k);
    }
  }
  return results;
}

QueryResult FastIndex::query_signature(const hash::SparseSignature& signature,
                                       std::size_t k) const {
  util::TraceSpan qspan("query");
  util::Tracer& tracer = util::Tracer::global();
  // Profiles are built whenever the tracer is enabled (not just when this
  // request was sampled) so slow queries reach the ring at any sample rate.
  const bool profiling = tracer.enabled();
  const double profile_start_s = profiling ? tracer.now_s() : 0.0;
  util::WallTimer wall_timer;

  QueryResult result;
  FAST_CHECK(signature.bit_count() == config_.bloom_bits);

  std::vector<std::vector<std::uint64_t>> probes;
  std::vector<std::uint64_t> keys;
  std::size_t probe_keys = 0;
  util::WallTimer keys_timer;
  {
    util::TraceSpan keys_span("sa.keys");
    keys = aggregator_->keys(signature, &probes);
    for (const auto& per_table : probes) probe_keys += per_table.size();
    keys_span.attr("keys", static_cast<double>(keys.size()));
    keys_span.attr("probe_keys", static_cast<double>(probe_keys));
  }
  const double keys_s = keys_timer.elapsed_seconds();
  m_.sa_keys_wall_s->observe(keys_s);
  m_.sa_keys_derived->add(keys.size());
  m_.sa_probe_keys->observe(static_cast<double>(probe_keys));

  // Collect candidates from the home bucket plus the probe buckets of
  // every table. Each flat-addressed lookup is a fixed bounded slot read;
  // the per-table work items are independent (Fig. 7 parallelism).
  std::unordered_set<std::uint64_t> candidate_ids;
  std::size_t slot_reads_total = 0;
  hash::ProbeProfile probe_profile;
  {
    util::TraceSpan probe_span("chs.probe");
    const std::size_t per_table_ops =
        aggregator_->query_hash_ops_per_table(signature);
    const double hash_cost =
        aggregator_->cost_domain() ==
                pipeline::SemanticAggregator::CostDomain::kFlops
            ? config_.cost.flop_s * static_cast<double>(per_table_ops)
            : config_.cost.mix_op_s * static_cast<double>(per_table_ops);
    for (std::size_t t = 0; t < keys.size(); ++t) {
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
      probe_bucket(keys[t]);
      for (const std::uint64_t pk : probes[t]) probe_bucket(pk);

      const double probe_cost =
          config_.cost.ram_access_s * static_cast<double>(table_slot_reads);
      result.cost.charge(hash_cost);
      result.cost.charge_ram(config_.cost.ram_access_s, table_slot_reads);
      result.parallel_tasks.push_back(hash_cost + probe_cost);
      slot_reads_total += table_slot_reads;
    }
    probe_span.attr("bucket_probes", static_cast<double>(result.bucket_probes));
    probe_span.attr("slot_reads", static_cast<double>(slot_reads_total));
    probe_span.attr("candidates", static_cast<double>(candidate_ids.size()));
  }
  m_.chs_slot_reads->add(slot_reads_total);
  if (probe_profile.fingerprint_false_hits != 0) {
    m_.chs_fingerprint_false_hits->add(probe_profile.fingerprint_false_hits);
  }

  // Rank candidates by signature similarity (sparse-domain Jaccard).
  result.candidates = candidate_ids.size();
  {
    util::TraceSpan rank_span("rank");
    result.hits.reserve(candidate_ids.size());
    for (const std::uint64_t id : candidate_ids) {
      const auto it = signatures_.find(id);
      FAST_CHECK(it != signatures_.end());
      result.hits.push_back(
          ScoredId{id, hash::SparseSignature::jaccard(signature, it->second)});
    }
    // Ranking cost: one sparse-overlap merge per candidate. Each merge is an
    // independent unit of parallel work (Fig. 7).
    result.cost.charge_ram(config_.cost.ram_access_s, candidate_ids.size());
    for (std::size_t c = 0; c < candidate_ids.size(); ++c) {
      result.parallel_tasks.push_back(config_.cost.ram_access_s);
    }

    const std::size_t keep = std::min(k, result.hits.size());
    std::partial_sort(result.hits.begin(),
                      result.hits.begin() + static_cast<std::ptrdiff_t>(keep),
                      result.hits.end(),
                      [](const ScoredId& a, const ScoredId& b) {
                        if (a.score != b.score) return a.score > b.score;
                        return a.id < b.id;  // deterministic tie-break
                      });
    result.hits.resize(keep);
    rank_span.attr("candidates", static_cast<double>(result.candidates));
    rank_span.attr("hits", static_cast<double>(result.hits.size()));
  }
  m_.queries->add();
  m_.chs_bucket_probes->observe(static_cast<double>(result.bucket_probes));
  m_.chs_candidates->observe(static_cast<double>(result.candidates));
  m_.query_sim_s->observe(result.cost.elapsed_s());

  qspan.attr("k", static_cast<double>(k));
  qspan.attr("hits", static_cast<double>(result.hits.size()));
  qspan.attr("candidates", static_cast<double>(result.candidates));
  qspan.attr("bucket_probes", static_cast<double>(result.bucket_probes));
  if (profiling) {
    util::QueryProfile profile;
    profile.request_id = qspan.request_id();
    profile.sampled = qspan.active();
    profile.start_s = profile_start_s;
    profile.wall_s = wall_timer.elapsed_seconds();
    profile.sa_keys_s = keys_s;
    profile.probe_rank_s = profile.wall_s - keys_s;
    profile.k = k;
    profile.hits = result.hits.size();
    profile.candidates = result.candidates;
    profile.bucket_probes = result.bucket_probes;
    profile.probe_keys = probe_keys;
    profile.slot_reads = slot_reads_total;
    tracer.record_query(profile);
  }
  return result;
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
  bytes += aggregator_->param_bytes();
  return bytes;
}

hash::CuckooStats FastIndex::cuckoo_stats() const {
  return store_->stats();
}

}  // namespace fast::core
