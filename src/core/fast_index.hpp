// FastIndex — the paper's primary contribution, assembled end to end from
// four composable stages:
//
//   FE  (feature extraction)   DoG interest points + PCA-SIFT descriptors
//   SM  (summarization)        per-image Bloom filter over quantized
//                              descriptors, stored sparsely (~40 B/image)
//   SA  (semantic aggregation) per-table bucket keys over the summaries:
//                              p-stable LSH with multi-probe, or MinHash
//                              banding (pipeline::SemanticAggregator)
//   CHS (storage)              bucket-key -> correlation group: flat
//                              windowed cuckoo addressing, or the chained
//                              vertical-addressing baseline
//                              (pipeline::GroupStore)
//
// The index is three shared parts: IndexFront (config, FE+SM summarizer,
// SA aggregator, metrics and the query scaffold; core/index_front.hpp),
// GroupIndex (the CHS core: group store, correlation groups and stored
// signatures; core/group_index.hpp) and DurableLog (snapshot + WAL;
// core/durability.hpp). Queries are O(1):
// L tables x (1 + probes) x bounded slot reads, all constants under flat
// addressing, followed by ranking the (small) candidate set by sparse-
// signature Jaccard similarity. Every operation reports simulated platform
// costs (see sim::CostModel) alongside its native execution.
//
// Batch-first execution: insert_batch/query_batch fan the expensive FE+SM
// stage across a util::ThreadPool before touching index state, so the
// placement phase (and, in the locking flat backend, the writer lock) runs
// once over precomputed signatures.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/durability.hpp"
#include "core/group_index.hpp"
#include "core/index_front.hpp"
#include "core/result.hpp"
#include "hash/sparse_signature.hpp"
#include "img/image.hpp"
#include "storage/snapshot.hpp"
#include "vision/pca.hpp"

namespace fast::core {

class FastIndex {
 public:
  /// `pca` is the PCA-SIFT eigenspace, trained offline on a sample of the
  /// corpus (see vision::train_pca_sift). Stages are built from `config`
  /// via the pipeline::make_* factories.
  FastIndex(FastConfig config, vision::PcaModel pca);

  const FastConfig& config() const noexcept { return front_.config(); }
  /// The shared FE+SM / SA / query scaffold (the flat backend's lock-free
  /// summarization and FE decoration go through it).
  const IndexFront& front() const noexcept { return front_; }
  std::size_t size() const noexcept { return core_.size(); }
  std::size_t group_count() const noexcept { return core_.group_count(); }
  std::size_t rehash_count() const noexcept { return rehashes_; }

  // --- FE + SM ---

  /// Runs feature extraction + Bloom summarization for one image.
  hash::SparseSignature summarize(const img::Image& image) const {
    return front_.summarize(image);
  }

  /// Tunes the LSH input scale from sample queries against a corpus sample
  /// (IndexFront::calibrate_scale, the paper's R-selection procedure). Must
  /// be called before the first insert.
  void calibrate_scale(std::span<const hash::SparseSignature> sample_queries,
                       std::span<const hash::SparseSignature> corpus_sample,
                       util::ThreadPool* pool = nullptr);

  // --- Insert path ---

  /// Full pipeline insert: extract, summarize, aggregate, store.
  InsertResult insert(std::uint64_t id, const img::Image& image);

  /// Inserts a precomputed signature (e.g., shipped by a mobile client).
  InsertResult insert_signature(std::uint64_t id,
                                const hash::SparseSignature& signature);

  /// Batch ingest: FE+SM runs for all items first — fanned across `pool`
  /// when provided — then placement proceeds in item order, so the final
  /// index state is identical to sequential insert() calls. Per-item
  /// results match insert()'s cost accounting.
  std::vector<InsertResult> insert_batch(std::span<const BatchImage> items,
                                         util::ThreadPool* pool = nullptr);

  /// Removes an image from the index: its id leaves every correlation
  /// group it joined and its signature is dropped (photo-retention expiry
  /// in the cloud deployment). Returns false when the id is unknown.
  bool erase(std::uint64_t id);

  // --- Durability (snapshot + WAL; see core/durability.hpp) ---

  /// Opens a durable index in opts.dir: loads the newest intact snapshot,
  /// replays the WAL tail (truncating a torn in-flight record), and starts
  /// a fresh WAL segment. An empty or absent directory yields an empty
  /// durable index. Hard errors: a snapshot written by a future format
  /// version (kBadVersion), a snapshot whose geometry fingerprint does not
  /// match `config` (kConfigMismatch), or filesystem failure; a corrupt
  /// newest snapshot is NOT a hard error — recovery falls back to the
  /// previous one (stats->snapshots_skipped).
  static storage::StatusOr<FastIndex> open_or_recover(
      FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
      RecoveryStats* stats = nullptr);

  /// Writes a full snapshot of the index at the current sequence number and
  /// rotates the WAL. One previous snapshot generation (and the WAL
  /// segments it does not cover) is retained so recovery can fall back past
  /// a latent-corrupt newest image without losing records; anything older
  /// is deleted. Requires a durable index.
  storage::Status save_snapshot();

  /// True when mutations are WAL-logged (index came from open_or_recover).
  bool durable() const noexcept { return log_.durable(); }

  /// Forces an fsync of any WAL records buffered by a wal_sync_every > 1
  /// group-commit cadence, so every acknowledged mutation is durable (the
  /// server drains through this on graceful shutdown). No-op when already
  /// synced or non-durable.
  storage::Status sync_wal() { return log_.sync(); }

  /// Sequence number of the last applied mutation (0 before any).
  std::uint64_t last_seq() const noexcept { return log_.last_seq(); }

  // --- Query path ---

  /// Full pipeline query: returns the top-k most similar images.
  QueryResult query(const img::Image& image, std::size_t k) const;

  /// Query with a precomputed signature.
  QueryResult query_signature(const hash::SparseSignature& signature,
                              std::size_t k) const;

  /// Batch query: FE+SM and the per-query probe/rank work both fan across
  /// `pool` when provided. Results are identical to per-item query() calls.
  std::vector<QueryResult> query_batch(
      std::span<const img::Image* const> images, std::size_t k,
      util::ThreadPool* pool = nullptr) const;

  /// The stored signature of an image (for tests / re-ranking).
  const hash::SparseSignature* signature_of(std::uint64_t id) const {
    return core_.signature_of(id);
  }

  /// Visits every resident (id, signature) pair in unspecified order.
  /// The flat backend's for_each_live_signature (shard routing rebuilds);
  /// not a hot path.
  template <typename Fn>
  void for_each_signature(Fn&& fn) const {
    for (const auto& [id, sig] : core_.signatures()) fn(id, sig);
  }

  /// Members of correlation group `g` (diagnostics/tests; erased groups
  /// stay as empty husks).
  std::span<const std::uint64_t> group_members(std::size_t g) const {
    return core_.group_members(g);
  }

  /// Per-stage observability: FE/SM timing, SA key derivation, CHS probe
  /// distributions and occupancy accumulate here (metric names in
  /// DESIGN.md §3b). Thread-safe to read and update concurrently; shared
  /// with the flat backend and sharded frontend wrapping this index.
  util::MetricsRegistry& metrics() const noexcept { return front_.metrics(); }

  /// Total bytes of the in-memory index: sparse signatures + storage slots +
  /// group membership lists + aggregator parameters. This is the FAST
  /// column of Table IV.
  std::size_t index_bytes() const {
    return core_.bytes() + front_.param_bytes();
  }

 private:
  /// Instruments of the flat CHS layout, cached so hot paths (queries
  /// racing through the flat backend's shared lock) update metrics with
  /// relaxed atomic increments only — never the registry mutex. The shared
  /// ones live in IndexFront::Instruments and DurableLog.
  struct StoreMetrics {
    util::Counter* chs_group_hits = nullptr;
    util::Counter* chs_group_creates = nullptr;
    util::Counter* chs_rehash_events = nullptr;
    util::Gauge* chs_load_factor = nullptr;
    util::Gauge* chs_occupied_slots = nullptr;
    util::Gauge* chs_capacity_slots = nullptr;
    util::Gauge* chs_insert_failures = nullptr;
    util::Gauge* chs_total_kicks = nullptr;
    util::Gauge* chs_max_kick_chain = nullptr;
    util::Gauge* chs_store_bytes = nullptr;
    util::Gauge* index_groups = nullptr;
  };

  /// Registers the CHS instruments and caches their pointers.
  void init_metrics();

  /// Refreshes the CHS occupancy/kick gauges from the store (write paths).
  void publish_storage_gauges();

  /// Mutation bodies, shared by the public (WAL-logging) wrappers and WAL
  /// replay. They touch only in-memory state — never the log — so replay
  /// reproduces exactly the state the original calls built.
  InsertResult apply_insert(std::uint64_t id,
                            const hash::SparseSignature& signature);
  bool apply_erase(std::uint64_t id);

  /// Serializes the full index state at last_seq().
  storage::SnapshotFile build_snapshot() const;
  /// Restores state from a validated snapshot; false = undecodable content
  /// (caller falls back to an older snapshot).
  bool restore_snapshot(const storage::SnapshotFile& snapshot);

  IndexFront front_;
  GroupIndex core_;
  std::size_t rehashes_ = 0;
  StoreMetrics m_;
  DurableLog log_;
};

}  // namespace fast::core
