#include "core/index_front.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/pipeline/factory.hpp"
#include "util/metrics.hpp"

namespace fast::core {

namespace {

vision::BloomSummarizerConfig summarizer_config(const FastConfig& config) {
  vision::BloomSummarizerConfig sc;
  sc.dog = config.dog;
  sc.pca_sift = config.pca_sift;
  sc.max_keypoints = config.max_keypoints;
  sc.bloom_bits = config.bloom_bits;
  sc.bloom_hashes = config.bloom_hashes;
  sc.quantize_group_dims = config.quantize_group_dims;
  sc.quantize_cell = config.quantize_cell;
  sc.spatial_cell_px = config.spatial_cell_px;
  return sc;
}

}  // namespace

IndexFront::IndexFront(FastConfig config, vision::PcaModel pca)
    : config_(std::move(config)),
      summarizer_(summarizer_config(config_), std::move(pca)),
      aggregator_(pipeline::make_aggregator(config_)) {
  FAST_CHECK_MSG(config_.lsh.dim == config_.bloom_bits,
                 "LSH input dim must equal the Bloom summary width");
  init_metrics();
}

void IndexFront::init_metrics() {
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
  m_.chs_slot_reads = &r.counter("chs.slot_reads");
  m_.chs_bucket_probes = &r.count_histogram("chs.bucket_probes_per_query");
  m_.chs_candidates = &r.count_histogram("chs.candidates_per_query");
  m_.index_size = &r.gauge("index.size");
}

// --- FE + SM --------------------------------------------------------------

hash::SparseSignature IndexFront::summarize(const img::Image& image) const {
  util::TraceSpan span("fe_sm.summarize");
  util::WallTimer timer;
  hash::SparseSignature sig = summarizer_.summarize(image);
  m_.fe_sm_images->add();
  m_.fe_sm_summarize_s->observe(timer.elapsed_seconds());
  return sig;
}

std::vector<hash::SparseSignature> IndexFront::summarize_batch(
    std::span<const img::Image* const> images, util::ThreadPool* pool) const {
  std::vector<hash::SparseSignature> sigs(images.size());
  const auto one = [&](std::size_t i) { sigs[i] = summarize(*images[i]); };
  if (pool != nullptr && images.size() > 1) {
    pool->parallel_for(images.size(), one);
  } else {
    for (std::size_t i = 0; i < images.size(); ++i) one(i);
  }
  return sigs;
}

sim::SimClock IndexFront::frontend_insert_cost() const noexcept {
  sim::SimClock clock;
  clock.charge(config_.feature_extract_s);
  // Bloom hashing cost: k hash ops per descriptor group.
  clock.charge_hash(config_.cost.hash_op_s,
                    config_.max_keypoints * config_.bloom_hashes);
  return clock;
}

void IndexFront::calibrate_scale(
    std::span<const hash::SparseSignature> sample_queries,
    std::span<const hash::SparseSignature> corpus_sample,
    util::ThreadPool* pool) {
  if (sample_queries.empty() || corpus_sample.empty()) return;
  // The paper tunes R to the typical distance between a queried point and
  // its nearest neighbor (§IV-A2, the sampling method of the original LSH
  // study). We measure exactly that — each sample query's NN distance in
  // the corpus sample — and choose the LSH input scale that places the
  // median of those distances at calibrate_target * omega. The per-query
  // scans share no state, so the O(Q*C) sweep fans across the pool; each
  // scan probes one dense bitset of its query.
  std::vector<double> best(sample_queries.size());
  const auto nn_of = [&](std::size_t i) {
    const hash::SparseSignature::DenseQuery dense(sample_queries[i]);
    double b = std::numeric_limits<double>::infinity();
    for (const auto& c : corpus_sample) {
      b = std::min(b, static_cast<double>(dense.hamming(c)));
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
  set_input_scale(config_.calibrate_target * config_.lsh.omega / median_nn);
}

void IndexFront::set_input_scale(double scale) {
  config_.lsh_input_scale = scale;
  aggregator_->set_input_scale(scale);
}

// --- SA -------------------------------------------------------------------

std::vector<std::uint64_t> IndexFront::insert_keys(
    const hash::SparseSignature& signature, sim::SimClock& cost) const {
  FAST_CHECK(signature.bit_count() == config_.bloom_bits);
  // SA hashing cost: p-stable projections or minwise passes, in the
  // aggregator's cost domain.
  const std::size_t sa_ops = aggregator_->insert_hash_ops(signature);
  if (aggregator_->cost_domain() ==
      pipeline::SemanticAggregator::CostDomain::kFlops) {
    cost.charge_flops(config_.cost.flop_s, sa_ops);
  } else {
    cost.charge_hash(config_.cost.mix_op_s, sa_ops);
  }
  std::vector<std::uint64_t> derived = keys(signature);
  m_.sa_keys_derived->add(derived.size());
  m_.sa_insert_hash_ops->add(sa_ops);
  return derived;
}

std::vector<std::uint64_t> IndexFront::keys(
    const hash::SparseSignature& signature) const {
  util::WallTimer keys_timer;
  std::vector<std::uint64_t> keys;
  {
    util::TraceSpan keys_span("sa.keys");
    keys = aggregator_->keys(signature, nullptr);
    keys_span.attr("keys", static_cast<double>(keys.size()));
  }
  m_.sa_keys_wall_s->observe(keys_timer.elapsed_seconds());
  return keys;
}

QueryKeys IndexFront::query_keys(const hash::SparseSignature& signature) const {
  QueryKeys q;
  util::WallTimer keys_timer;
  {
    util::TraceSpan keys_span("sa.keys");
    q.keys = aggregator_->keys(signature, &q.probes);
    for (const auto& per_table : q.probes) q.probe_keys += per_table.size();
    keys_span.attr("keys", static_cast<double>(q.keys.size()));
    keys_span.attr("probe_keys", static_cast<double>(q.probe_keys));
  }
  q.keys_s = keys_timer.elapsed_seconds();
  m_.sa_keys_wall_s->observe(q.keys_s);
  m_.sa_keys_derived->add(q.keys.size());
  m_.sa_probe_keys->observe(static_cast<double>(q.probe_keys));
  // SA hashing is charged per table, however many layers get probed.
  const std::size_t per_table_ops =
      aggregator_->query_hash_ops_per_table(signature);
  q.table_hash_s =
      aggregator_->cost_domain() ==
              pipeline::SemanticAggregator::CostDomain::kFlops
          ? config_.cost.flop_s * static_cast<double>(per_table_ops)
          : config_.cost.mix_op_s * static_cast<double>(per_table_ops);
  return q;
}

void IndexFront::charge_table(QueryResult& result, double table_hash_s,
                              std::size_t slot_reads) const {
  const double probe_cost =
      config_.cost.ram_access_s * static_cast<double>(slot_reads);
  result.cost.charge(table_hash_s);
  result.cost.charge_ram(config_.cost.ram_access_s, slot_reads);
  result.parallel_tasks.push_back(table_hash_s + probe_cost);
}

void IndexFront::record_insert(const InsertResult& result) const {
  m_.inserts->add();
  m_.insert_sim_s->observe(result.cost.elapsed_s());
}

// --- Query scaffold -------------------------------------------------------

IndexFront::QueryClock IndexFront::start_query() const {
  util::Tracer& tracer = util::Tracer::global();
  QueryClock clock;
  // Profiles are built whenever the tracer is enabled (not just when this
  // request was sampled) so slow queries reach the ring at any sample rate.
  clock.profiling = tracer.enabled();
  clock.start_s = clock.profiling ? tracer.now_s() : 0.0;
  clock.wall.reset();
  return clock;
}

void IndexFront::rank(QueryResult& result, std::size_t k,
                      util::TraceSpan& rank_span) const {
  result.candidates = result.hits.size();
  // Ranking cost: one RAM access per candidate, the paper's platform model
  // (natively each candidate is a dense-probe overlap count). Each
  // candidate is an independent unit of parallel work (Fig. 7).
  result.cost.charge_ram(config_.cost.ram_access_s, result.candidates);
  for (std::size_t c = 0; c < result.candidates; ++c) {
    result.parallel_tasks.push_back(config_.cost.ram_access_s);
  }
  keep_top_k(result.hits, k);
  rank_span.attr("candidates", static_cast<double>(result.candidates));
  rank_span.attr("hits", static_cast<double>(result.hits.size()));
}

void IndexFront::finish_query(util::TraceSpan& span, const QueryClock& clock,
                              const QueryKeys& keys, std::size_t slot_reads,
                              std::size_t k, const QueryResult& result) const {
  m_.chs_slot_reads->add(slot_reads);
  m_.queries->add();
  m_.chs_bucket_probes->observe(static_cast<double>(result.bucket_probes));
  m_.chs_candidates->observe(static_cast<double>(result.candidates));
  m_.query_sim_s->observe(result.cost.elapsed_s());

  span.attr("k", static_cast<double>(k));
  span.attr("hits", static_cast<double>(result.hits.size()));
  span.attr("candidates", static_cast<double>(result.candidates));
  span.attr("bucket_probes", static_cast<double>(result.bucket_probes));
  if (clock.profiling) {
    util::QueryProfile profile;
    profile.request_id = span.request_id();
    profile.sampled = span.active();
    profile.start_s = clock.start_s;
    profile.wall_s = clock.wall.elapsed_seconds();
    profile.sa_keys_s = keys.keys_s;
    profile.probe_rank_s = profile.wall_s - keys.keys_s;
    profile.k = k;
    profile.hits = result.hits.size();
    profile.candidates = result.candidates;
    profile.bucket_probes = result.bucket_probes;
    profile.probe_keys = keys.probe_keys;
    profile.slot_reads = slot_reads;
    util::Tracer::global().record_query(profile);
  }
}

QueryResult IndexFront::with_frontend_cost(QueryResult result) const {
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

}  // namespace fast::core
