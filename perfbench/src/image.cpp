// image — full-pipeline raw-image inserts and queries (FastIndex::insert /
// FastIndex::query) over synthetic workload::Dataset photos with a trained
// PCA-SIFT eigenspace. The only workload that runs the vision layer: DoG
// detection dominates every op.
//
// Each worker thread drives its own FastIndex (a shard per core) with its
// own op stream over the shared, read-only photos. On a VM whose virtual
// CPUs run at different speeds, pooling several workers keeps one slow CPU
// from setting the result.
#include <algorithm>
#include <map>
#include <memory>

#include "common.hpp"
#include "core/fast_index.hpp"
#include "core/pipeline/factory.hpp"
#include "vision/dog_detector.hpp"
#include "vision/pca_sift.hpp"
#include "workload/query_gen.hpp"
#include "workload/scene_generator.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kCorpusImages = 200;
constexpr std::size_t kInsertImages = 600;
constexpr std::size_t kQueryImages = 200;
constexpr std::size_t kPcaImages = 8;
constexpr std::size_t kTopK = 10;
constexpr double kMinRecall = 0.4;
constexpr double kWarmupS = 0.5;

using ClusterKey = std::pair<std::uint32_t, std::uint32_t>;  // landmark, view

struct LayerTally {
  double detect_s = 0, summarize_s = 0, keys_insert_s = 0, keys_query_s = 0,
         query_s = 0;
  std::uint64_t images = 0, keypoints = 0, bits = 0, inserts = 0, queries = 0,
                candidates = 0, bucket_probes = 0, slot_reads = 0, hits = 0;

  void merge(const LayerTally& o) {
    detect_s += o.detect_s;
    summarize_s += o.summarize_s;
    keys_insert_s += o.keys_insert_s;
    keys_query_s += o.keys_query_s;
    query_s += o.query_s;
    images += o.images;
    keypoints += o.keypoints;
    bits += o.bits;
    inserts += o.inserts;
    queries += o.queries;
    candidates += o.candidates;
    bucket_probes += o.bucket_probes;
    slot_reads += o.slot_reads;
    hits += o.hits;
  }
};

/// One worker's index, op stream position and tallies.
struct Lane {
  std::unique_ptr<fast::core::FastIndex> index;
  std::map<ClusterKey, std::vector<std::uint64_t>> members;
  std::size_t next_insert = 0, next_query = 0;
  Samples insert_ms, query_ms;
  double recall_sum = 0;
  std::uint64_t recall_n = 0;
  std::vector<fast::core::ScoredId> previous_hits;
  LayerTally tally;
};

}  // namespace

Report run_image(const Options& opts) {
  Report report;
  const std::size_t workers = std::min<std::size_t>(3, opts.nproc);
  report.note("threads: workers=" + std::to_string(workers) +
              " (one FastIndex each)");

  fast::workload::DatasetSpec spec =
      fast::workload::DatasetSpec::wuhan(kCorpusImages + kInsertImages);
  spec.seed = opts.seed;
  const fast::workload::Dataset dataset =
      fast::workload::SceneGenerator(spec).generate();
  const auto queries =
      fast::workload::make_dup_queries(dataset, kQueryImages, opts.seed + 7);

  // The eigenspace is a trained model the index is handed, not index
  // construction: it is fitted once per run, outside setup_s.
  std::vector<fast::img::Image> sample;
  for (std::size_t i = 0; i < kPcaImages; ++i) {
    sample.push_back(dataset.photos[i].image);
  }
  const Clock::time_point t0 = Clock::now();
  const fast::vision::PcaModel pca = fast::vision::train_pca_sift(sample);
  report.note("image: pca_train_s=" + fmt(seconds_since(t0)));

  // Set-up: every worker builds its index from the corpus at the same
  // time. An untraced run times another round of builds, thrown away, after
  // each half of the window below, and setup_s is the median of all the
  // builds. A virtual CPU whose host core is shared runs DoG detection at
  // one of two speeds for seconds at a time, so builds spread over the run
  // sample both where builds at one moment catch one.
  const fast::core::FastConfig config;
  std::vector<Lane> lanes(workers);
  std::vector<double> setup_s(workers);
  parallel_for(workers, workers, [&](std::size_t w) {
    const Clock::time_point start = Clock::now();
    Lane& lane = lanes[w];
    lane.index = std::make_unique<fast::core::FastIndex>(config, pca);
    for (std::size_t i = 0; i < kCorpusImages; ++i) {
      lane.index->insert(dataset.photos[i].id, dataset.photos[i].image);
    }
    setup_s[w] = seconds_since(start);
    for (std::size_t i = 0; i < kCorpusImages; ++i) {
      const auto& p = dataset.photos[i];
      lane.members[{p.landmark, p.view}].push_back(p.id);
    }
  });
  const auto spare_builds = [&] {
    std::vector<double> built_s(workers);
    parallel_for(workers, workers, [&](std::size_t w) {
      const Clock::time_point start = Clock::now();
      fast::core::FastIndex spare(config, pca);
      for (std::size_t i = 0; i < kCorpusImages; ++i) {
        spare.insert(dataset.photos[i].id, dataset.photos[i].image);
      }
      built_s[w] = seconds_since(start);
    });
    setup_s.insert(setup_s.end(), built_s.begin(), built_s.end());
  };

  // Op stream per worker: inserts of not-yet-indexed photos alternate with
  // near-duplicate queries; workers walk both lists at different offsets.
  // Photos are re-inserted under fresh ids if a fast host exhausts them.
  bool traced = false;
  const auto aggregator = fast::core::pipeline::make_aggregator(config);
  const auto trace_fe = [&](Lane& lane, const fast::img::Image& image) {
    LayerTally& t = lane.tally;
    const Clock::time_point a = Clock::now();
    t.keypoints += fast::vision::detect_keypoints(image, config.dog).size();
    const Clock::time_point b = Clock::now();
    const auto sig = lane.index->summarize(image);
    t.detect_s += seconds_between(a, b);
    t.summarize_s += seconds_since(b);
    t.bits += sig.popcount();
    ++t.images;
    return sig;
  };
  const auto op = [&](std::size_t w, std::size_t i) {
    Lane& lane = lanes[w];
    if (i % 2 == 0) {
      const std::size_t n = lane.next_insert++;
      const auto& photo =
          dataset.photos[kCorpusImages + (n * workers + w) % kInsertImages];
      const std::uint64_t id = dataset.photos.size() + n;
      const Clock::time_point a = Clock::now();
      lane.index->insert(id, photo.image);
      lane.insert_ms.add(seconds_since(a) * 1e3);
      lane.members[{photo.landmark, photo.view}].push_back(id);
      if (traced) {
        const auto sig = trace_fe(lane, photo.image);
        const Clock::time_point k = Clock::now();
        (void)aggregator->keys(sig, nullptr);
        lane.tally.keys_insert_s += seconds_since(k);
        ++lane.tally.inserts;
      }
      return;
    }
    const auto& q =
        queries[(lane.next_query++ * workers + w) % queries.size()];
    const Clock::time_point a = Clock::now();
    const fast::core::QueryResult r = lane.index->query(q.image, kTopK);
    lane.query_ms.add(seconds_since(a) * 1e3);
    // The gate's own test answers with the previous query's hits.
    const auto& got = opts.inject == "wrong_answer" &&
                              !lane.previous_hits.empty()
                          ? lane.previous_hits
                          : r.hits;
    const auto& relevant = lane.members[{q.landmark, q.view}];
    if (!relevant.empty()) {
      std::size_t found = 0;
      for (const auto& h : got) {
        for (std::uint64_t id : relevant) found += h.id == id ? 1 : 0;
      }
      lane.recall_sum += static_cast<double>(found) /
                         static_cast<double>(std::min(kTopK, relevant.size()));
      ++lane.recall_n;
    }
    lane.previous_hits = r.hits;
    if (traced) {
      const auto sig = trace_fe(lane, q.image);
      std::vector<std::vector<std::uint64_t>> probes;
      const Clock::time_point k = Clock::now();
      (void)aggregator->keys(sig, &probes);
      const Clock::time_point s = Clock::now();
      auto& slot_reads = lane.index->metrics().counter("chs.slot_reads");
      const std::uint64_t reads0 = slot_reads.value();
      const fast::core::QueryResult rs =
          lane.index->query_signature(sig, kTopK);
      LayerTally& t = lane.tally;
      t.query_s += seconds_since(s);
      t.slot_reads += slot_reads.value() - reads0;
      t.keys_query_s += seconds_between(k, s);
      ++t.queries;
      t.candidates += rs.candidates;
      t.bucket_probes += rs.bucket_probes;
      t.hits += rs.hits.size();
    }
  };
  const auto ops_done = [&] {
    std::size_t n = 0;
    for (const auto& lane : lanes) {
      n += lane.insert_ms.size() + lane.query_ms.size();
    }
    return n;
  };

  closed_loop(workers, kWarmupS, op);
  for (auto& lane : lanes) {
    lane.insert_ms = lane.query_ms = Samples();
    lane.recall_sum = 0;
    lane.recall_n = 0;
  }
  // One window in two halves; every figure pools all of its ops. A virtual CPU whose
  // host core is shared runs DoG detection up to twice as slowly, flipping
  // within a second, so whole-window figures average over both speeds where
  // a chunk's figure depends on which one it caught.
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  double untraced_wall_s = 0;
  for (int half = 0; half < 2; ++half) {
    untraced_wall_s += closed_loop(workers, untraced_s / 2, op);
    if (!opts.trace) spare_builds();
  }
  Samples insert_ms, query_ms;
  for (auto& lane : lanes) {
    insert_ms.append(lane.insert_ms);
    query_ms.append(lane.query_ms);
    lane.insert_ms = lane.query_ms = Samples();
  }
  report.attempted += insert_ms.size() + query_ms.size();
  const double ops_per_s =
      static_cast<double>(report.attempted) / untraced_wall_s;
  double recall_sum = 0, bytes_per_item = 0;
  std::uint64_t recall_n = 0;
  for (const auto& lane : lanes) {
    recall_sum += lane.recall_sum;
    recall_n += lane.recall_n;
    bytes_per_item += static_cast<double>(lane.index->index_bytes()) /
                      static_cast<double>(lane.index->size()) /
                      static_cast<double>(workers);
  }
  const double recall = recall_sum / static_cast<double>(recall_n);
  if (!(recall >= kMinRecall)) {
    report.violation("image recall_at_10 " + fmt(recall) + " < " +
                     fmt(kMinRecall));
  }
  report.note("image: ops=" + std::to_string(report.attempted) +
              " insert_p50_ms=" + fmt(insert_ms.percentile(50)) +
              " recall_at_10=" + fmt(recall) + " failed_frac=0");

  if (!opts.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("query_p50_ms", query_ms.percentile(50), "ms");
    report.metric("ops_per_s", ops_per_s, "1/s");
    report.metric("recall_at_10", recall, "frac");
    report.metric("index_bytes_per_item", bytes_per_item, "B");
    report.metric("rss_mb", rss_mb_self(), "MiB");
    return report;
  }

  traced = true;
  const double traced_wall_s = closed_loop(workers, opts.seconds / 2, op);
  const std::size_t traced_ops = ops_done();
  report.attempted += traced_ops;
  LayerTally tally;
  std::uint64_t hash_ops = 0, inserts = 0;
  double load_factor = 0, kicks = 0;
  for (const auto& lane : lanes) {
    tally.merge(lane.tally);
    const auto snap = lane.index->metrics().snapshot();
    hash_ops += counter_of(snap, "sa.insert_hash_ops");
    inserts += counter_of(snap, "index.inserts");
    load_factor += gauge_of(snap, "chs.load_factor") /
                   static_cast<double>(workers);
    kicks += gauge_of(snap, "chs.total_kicks");
  }
  const double ni = static_cast<double>(tally.images);
  const double nq = static_cast<double>(tally.queries);
  const double keys_query_us = tally.keys_query_s / nq * 1e6;
  const double probe_rank_us = tally.query_s / nq * 1e6 - keys_query_us;
  const double cands = static_cast<double>(tally.candidates) / nq;
  report.metric("fe.detect_ms", tally.detect_s / ni * 1e3, "ms");
  report.metric("fe_sm.summarize_ms", tally.summarize_s / ni * 1e3, "ms");
  report.metric("fe.keypoints_per_image",
                static_cast<double>(tally.keypoints) / ni, "count");
  report.metric("sm.bits_per_sig", static_cast<double>(tally.bits) / ni,
                "count");
  report.metric("sa.keys_insert_us",
                tally.keys_insert_s / static_cast<double>(tally.inserts) * 1e6,
                "us");
  report.metric("sa.keys_query_us", keys_query_us, "us");
  report.metric("sa.hash_ops_per_sig",
                static_cast<double>(hash_ops) / static_cast<double>(inserts),
                "count");
  report.metric("chs.bucket_probes_per_query",
                static_cast<double>(tally.bucket_probes) / nq, "count");
  report.metric("chs.slot_reads_per_query",
                static_cast<double>(tally.slot_reads) / nq, "count");
  report.metric("chs.load_factor", load_factor, "frac");
  report.metric("chs.kicks_per_insert", kicks / static_cast<double>(inserts),
                "count");
  report.metric("rank.candidates_per_query", cands, "count");
  report.metric("rank.probe_rank_us", probe_rank_us, "us");
  report.metric("rank.us_per_candidate", probe_rank_us / cands, "us");
  report.metric("rank.useful_frac",
                static_cast<double>(tally.hits) /
                    static_cast<double>(tally.candidates),
                "frac");
  report.metric("trace.overhead_frac",
                (static_cast<double>(report.attempted - traced_ops) /
                 untraced_wall_s) /
                        (static_cast<double>(traced_ops) / traced_wall_s) -
                    1.0,
                "frac");
  return report;
}

}  // namespace perfbench
