// IndexFront — the part of the FAST pipeline that FastIndex and TieredIndex
// share (DESIGN.md §3a): everything that does not depend on how CHS state
// is laid out. It owns the config, the FE+SM summarizer, the SA aggregator
// and the metrics registry with the instruments both backends register,
// and provides:
//   FE + SM  summarize / summarize_batch, the simulated frontend cost and
//            the R-tuning calibration (paper §IV-A2);
//   SA       key derivation with its "sa.keys" span and metrics, and the
//            insert and per-table query hash charges;
//   query    the scaffold around a backend's CHS probe: the "query" and
//            "rank" spans, top-k ranking, per-query metrics, QueryProfile;
//   FE decoration  insert(image) / insert_batch / query(image) /
//            query_batch over a backend's signature path.
// The scaffold and decorations are templates over the backend, so the
// signature query path pays no indirect call.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/pipeline/semantic_aggregator.hpp"
#include "core/result.hpp"
#include "hash/sparse_signature.hpp"
#include "img/image.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"
#include "vision/bloom_summarizer.hpp"
#include "vision/pca.hpp"

namespace fast::util {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}

namespace fast::core {

/// One item of a batched ingest: the image stays owned by the caller.
struct BatchImage {
  std::uint64_t id = 0;
  const img::Image* image = nullptr;
};

/// SA output for one query signature.
struct QueryKeys {
  std::vector<std::uint64_t> keys;                 ///< home key per table
  std::vector<std::vector<std::uint64_t>> probes;  ///< extra keys per table
  std::size_t probe_keys = 0;  ///< extra keys across all tables
  double table_hash_s = 0;     ///< simulated SA hash cost of one table
  double keys_s = 0;           ///< native wall time of the derivation
};

class IndexFront {
 public:
  /// Instruments every backend registers (DESIGN.md §3b names them).
  struct Instruments {
    util::Counter* fe_sm_images = nullptr;
    util::Histogram* fe_sm_summarize_s = nullptr;
    util::Counter* inserts = nullptr;
    util::Counter* erases = nullptr;
    util::Counter* queries = nullptr;
    util::Histogram* insert_sim_s = nullptr;
    util::Histogram* query_sim_s = nullptr;
    util::Counter* sa_keys_derived = nullptr;
    util::Counter* sa_insert_hash_ops = nullptr;
    // Native wall time of one key derivation. Deliberately separate from
    // sa.insert_hash_ops: the ops counter charges the paper's dense
    // L*M*dim flop model to the simulated platform, while this histogram
    // tracks what the real (sparse) kernel actually costs.
    util::Histogram* sa_keys_wall_s = nullptr;
    util::Histogram* sa_probe_keys = nullptr;
    util::Counter* chs_slot_reads = nullptr;
    util::Histogram* chs_bucket_probes = nullptr;
    util::Histogram* chs_candidates = nullptr;
    util::Gauge* index_size = nullptr;
  };

  /// `pca` is the PCA-SIFT eigenspace, trained offline on a corpus sample.
  IndexFront(FastConfig config, vision::PcaModel pca);

  const FastConfig& config() const noexcept { return config_; }
  /// The registry is shared (not owned by value) so it stays put when the
  /// owning index moves and cached instrument pointers stay valid.
  util::MetricsRegistry& metrics() const noexcept { return *metrics_; }
  const Instruments& m() const noexcept { return m_; }
  std::size_t table_count() const noexcept {
    return aggregator_->table_count();
  }
  /// Bytes of SA hash parameters (Table IV accounting).
  std::size_t param_bytes() const noexcept {
    return aggregator_->param_bytes();
  }

  // --- FE + SM ---

  /// Runs feature extraction + Bloom summarization for one image.
  hash::SparseSignature summarize(const img::Image& image) const;

  /// summarize() for every image, fanned across `pool` when given.
  std::vector<hash::SparseSignature> summarize_batch(
      std::span<const img::Image* const> images, util::ThreadPool* pool) const;

  /// Simulated frontend cost every image-ingest path charges on top of the
  /// signature insert: feature extraction plus k Bloom hash ops per
  /// descriptor group.
  sim::SimClock frontend_insert_cost() const noexcept;

  /// The paper's R-selection (§IV-A2): maps the median sample-query
  /// nearest-neighbor distance to calibrate_target * omega. A no-op when
  /// either sample is empty; the NN sweep fans across `pool` when given,
  /// with results identical to the sequential path.
  void calibrate_scale(std::span<const hash::SparseSignature> sample_queries,
                       std::span<const hash::SparseSignature> corpus_sample,
                       util::ThreadPool* pool);

  /// Adopts a persisted LSH input scale (snapshot restore).
  void set_input_scale(double scale);
  /// Adopts a persisted lane count (tiered snapshot restore).
  void set_tier_lanes(std::size_t lanes) noexcept {
    config_.tier.lanes = lanes;
  }

  // --- SA ---

  /// Insert-path keys: charges the aggregator's insert hash ops to `cost`
  /// and records the derivation under an "sa.keys" span.
  std::vector<std::uint64_t> insert_keys(const hash::SparseSignature& signature,
                                         sim::SimClock& cost) const;

  /// Keys of an already-stored signature (erase path), timed only.
  std::vector<std::uint64_t> keys(const hash::SparseSignature& signature) const;

  /// Query-path keys plus probe keys and the per-table hash cost.
  QueryKeys query_keys(const hash::SparseSignature& signature) const;

  /// Charges one table's SA hash and CHS slot reads and adds its
  /// independent work unit to the Fig. 7 task list.
  void charge_table(QueryResult& result, double table_hash_s,
                    std::size_t slot_reads) const;

  /// Counts a finished insert and its simulated cost.
  void record_insert(const InsertResult& result) const;

  // --- Query scaffold ---

  /// One signature query. `probe(const QueryKeys&, QueryResult&)` runs the
  /// backend's CHS probe (its own "chs.probe" span, per-table charges via
  /// charge_table, bucket_probes) and returns the slot reads it made;
  /// `score(QueryResult&)` then fills result.hits with every candidate,
  /// unsorted, inside the "rank" span. The scaffold ranks the top k and
  /// records metrics, span attributes and the QueryProfile.
  template <typename Probe, typename Score>
  QueryResult query(const hash::SparseSignature& signature, std::size_t k,
                    const Probe& probe, const Score& score) const {
    util::TraceSpan span("query");
    const QueryClock clock = start_query();
    FAST_CHECK(signature.bit_count() == config_.bloom_bits);
    QueryResult result;
    const QueryKeys keys = query_keys(signature);
    const std::size_t slot_reads = probe(keys, result);
    {
      util::TraceSpan rank_span("rank");
      score(result);
      rank(result, k, rank_span);
    }
    finish_query(span, clock, keys, slot_reads, k, result);
    return result;
  }

  // --- FE decoration over a backend's signature path ---
  //
  // `backend` is the index calling in (FastIndex, TieredIndex or the
  // locking flat backend); these call its insert_signature /
  // query_signature, so any lock it takes there is held only around index
  // work, never around FE+SM.

  /// insert(image): summarize, insert the signature, add the frontend cost.
  template <typename Backend>
  InsertResult insert_image(Backend& backend, std::uint64_t id,
                            const img::Image& image) const {
    util::TraceSpan span("insert.image");
    InsertResult stored = backend.insert_signature(id, summarize(image));
    stored.cost.merge(frontend_insert_cost());
    return stored;
  }

  /// Batch ingest: FE+SM for the whole batch first (fanned across `pool`),
  /// then placement in item order — the final state and per-item costs of
  /// sequential insert_image() calls.
  template <typename Backend>
  std::vector<InsertResult> insert_batch(Backend& backend,
                                         std::span<const BatchImage> items,
                                         util::ThreadPool* pool) const {
    std::vector<const img::Image*> images(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) images[i] = items[i].image;
    const std::vector<hash::SparseSignature> sigs =
        summarize_batch(images, pool);
    util::TraceSpan span("insert_batch.place");
    span.attr("items", static_cast<double>(items.size()));
    std::vector<InsertResult> results;
    results.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      InsertResult stored = backend.insert_signature(items[i].id, sigs[i]);
      stored.cost.merge(frontend_insert_cost());
      results.push_back(std::move(stored));
    }
    return results;
  }

  /// Adds what a query for a just-summarized image costs on top of its
  /// signature query: the FE charge, Bloom hash ops and max_keypoints
  /// parallel FE task chunks.
  QueryResult with_frontend_cost(QueryResult result) const;

  /// query(image): summarize, query the signature, add the frontend cost.
  template <typename Backend>
  QueryResult query_image(const Backend& backend, const img::Image& image,
                          std::size_t k) const {
    util::TraceSpan span("query.image");
    return with_frontend_cost(backend.query_signature(summarize(image), k));
  }

  /// query_image() per image. The whole per-query pipeline is read-only, so
  /// complete queries fan across `pool`, not just summarization.
  template <typename Backend>
  std::vector<QueryResult> query_batch(
      const Backend& backend, std::span<const img::Image* const> images,
      std::size_t k, util::ThreadPool* pool) const {
    std::vector<QueryResult> results(images.size());
    const auto one = [&](std::size_t i) {
      results[i] = query_image(backend, *images[i], k);
    };
    if (pool != nullptr && images.size() > 1) {
      pool->parallel_for(images.size(), one);
    } else {
      for (std::size_t i = 0; i < images.size(); ++i) one(i);
    }
    return results;
  }

 private:
  struct QueryClock {
    bool profiling = false;  ///< tracer enabled: build a QueryProfile
    double start_s = 0;
    util::WallTimer wall;
  };

  void init_metrics();
  QueryClock start_query() const;
  /// Charges ranking, keeps the top k and annotates the "rank" span.
  void rank(QueryResult& result, std::size_t k,
            util::TraceSpan& rank_span) const;
  void finish_query(util::TraceSpan& span, const QueryClock& clock,
                    const QueryKeys& keys, std::size_t slot_reads,
                    std::size_t k, const QueryResult& result) const;

  FastConfig config_;
  vision::BloomSummarizer summarizer_;
  std::unique_ptr<pipeline::SemanticAggregator> aggregator_;
  std::shared_ptr<util::MetricsRegistry> metrics_;
  Instruments m_;
};

}  // namespace fast::core
