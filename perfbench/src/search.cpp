// search — closed-loop signature queries through a writable flat
// QueryEngine. The corpus is shaped like FE/SM output, so every query ranks
// hundreds of candidates and the rank stage dominates; inserts happen only
// in set-up and are not timed.
#include <memory>

#include "common.hpp"
#include "core/pipeline/factory.hpp"
#include "core/query_engine.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kCorpus = 2000;
constexpr std::size_t kClusters = 200;
constexpr double kClusterSkew = 0.9;
constexpr std::size_t kQueryPool = 512;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kRecallSample = 64;
constexpr double kMinRecall = 0.5;
constexpr double kWarmupS = 0.5;
constexpr std::size_t kChunks = 4;

/// Per-worker accumulators of the traced phase.
struct LayerTally {
  double keys_query_s = 0;
  double query_s = 0;
  std::uint64_t queries = 0;
  std::uint64_t candidates = 0;
  std::uint64_t bucket_probes = 0;
  std::uint64_t hits = 0;
};

}  // namespace

Report run_search(const Options& opts) {
  Report report;
  const std::size_t threads = std::min<std::size_t>(3, opts.nproc);
  report.note("threads: query=" + std::to_string(threads));

  // Inputs, all from the seed.
  const SignatureModel model(opts.seed * 0x9e3779b97f4a7c15ULL + 1, kClusters,
                             kClusterSkew);
  fast::util::Rng rng(opts.seed);
  std::vector<fast::hash::SparseSignature> corpus;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kCorpus; ++i) {
    corpus.push_back(model.member(model.pick_cluster(rng), rng));
    ids.push_back(i + 1);
  }
  std::vector<fast::hash::SparseSignature> queries;
  for (std::size_t i = 0; i < kQueryPool; ++i) {
    queries.push_back(model.member(model.pick_cluster(rng), rng));
  }

  // Set-up: build the index from the corpus. The first build is kept; an
  // untraced run times another, thrown away, after each chunk of the window
  // below, and setup_s is the median. A build is about a second of MinHash
  // work, and a virtual CPU whose host core is shared runs that at one of
  // two speeds for seconds at a time, so builds spread over the run sample
  // both where builds back to back catch one.
  const fast::core::FastConfig config;
  std::vector<double> setup_s;
  struct Built {
    std::unique_ptr<fast::core::FastIndex> index;
    // Declared after the index, so destroyed before it.
    std::unique_ptr<fast::core::QueryEngine> engine;
  };
  const auto build = [&] {
    const Clock::time_point t0 = Clock::now();
    Built b;
    b.index =
        std::make_unique<fast::core::FastIndex>(config, placeholder_pca());
    b.engine = std::make_unique<fast::core::QueryEngine>(*b.index, 1);
    for (std::size_t i = 0; i < kCorpus; ++i) {
      b.engine->insert_signature(ids[i], corpus[i]);
    }
    setup_s.push_back(seconds_since(t0));
    return b;
  };
  const Built built = build();
  fast::core::QueryEngine* const engine = built.engine.get();
  const fast::core::FastIndex* const index = built.index.get();

  std::vector<Samples> latency(threads);
  const auto timed_query = [&](std::size_t w, std::size_t i) {
    const auto& q = queries[(w + i * threads) % kQueryPool];
    const Clock::time_point t0 = Clock::now();
    const fast::core::QueryResult r = engine->query_signature(q, kTopK);
    latency[w].add(seconds_since(t0) * 1e3);
    (void)r;
  };
  closed_loop(threads, kWarmupS, timed_query);
  for (auto& s : latency) s = Samples();

  // The window is cut into chunks; p50 and throughput are medians over the
  // chunks, so a transient stall of the host moves only a minority of them.
  // The p99 pools the whole window, which a chunk is too short to support.
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  Samples all;
  std::vector<double> chunk_p50, chunk_ops;
  for (std::size_t c = 0; c < kChunks; ++c) {
    const double wall_s = closed_loop(threads, untraced_s / kChunks,
                                      timed_query);
    Samples chunk;
    for (auto& s : latency) {
      chunk.append(s);
      s = Samples();
    }
    chunk_p50.push_back(chunk.percentile(50));
    chunk_ops.push_back(static_cast<double>(chunk.size()) / wall_s);
    all.append(chunk);
    if (!opts.trace) (void)build();
  }
  const double ops_per_s = median(chunk_ops);
  report.attempted += all.size();

  // Recall against brute-force ground truth on a spread sample of queries.
  std::vector<double> recall(kRecallSample, 0.0);
  parallel_for(threads, kRecallSample, [&](std::size_t s) {
    const std::size_t qi = s * (kQueryPool / kRecallSample);
    const auto& q = queries[qi];
    const auto truth = exact_top_k(q, corpus, ids, kTopK);
    // The injected fault answers with another query's hits.
    const auto& asked =
        opts.inject == "wrong_answer" ? queries[(qi + 1) % kQueryPool] : q;
    const auto got = engine->query_signature(asked, kTopK).hits;
    recall[s] = recall_at_k(got, truth, kTopK, [&](std::uint64_t id) {
      return fast::hash::SparseSignature::jaccard(q, corpus[id - 1]);
    });
  });
  double recall_mean = 0;
  for (double r : recall) recall_mean += r;
  recall_mean /= static_cast<double>(kRecallSample);
  report.attempted += kRecallSample;
  if (!(recall_mean >= kMinRecall)) {
    report.violation("search recall_at_10 " + fmt(recall_mean) + " < " +
                     fmt(kMinRecall));
  }
  report.note("search: corpus=" + std::to_string(kCorpus) +
              " queries=" + std::to_string(all.size()) +
              " recall_at_10=" + fmt(recall_mean) +
              " failed_frac=0");

  if (!opts.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("query_p50_ms", median(chunk_p50), "ms");
    report.tail("query_p99_ms", all.percentile(99), all.size(), 99);
    report.metric("ops_per_s", ops_per_s, "1/s");
    report.metric("recall_at_10", recall_mean, "frac");
    report.metric("index_bytes_per_item",
                  static_cast<double>(index->index_bytes()) /
                      static_cast<double>(index->size()),
                  "B");
    report.metric("rss_mb", rss_mb_self(), "MiB");
    return report;
  }

  // Traced phase: the same closed loop, with each query's SA key derivation
  // timed separately through the configured aggregator.
  const auto aggregator = fast::core::pipeline::make_aggregator(config);
  std::vector<LayerTally> tally(threads);
  const auto before = index->metrics().snapshot();
  const double traced_wall_s =
      closed_loop(threads, opts.seconds / 2, [&](std::size_t w, std::size_t i) {
        const auto& q = queries[(w + i * threads) % kQueryPool];
        LayerTally& t = tally[w];
        std::vector<std::vector<std::uint64_t>> probes;
        const Clock::time_point t0 = Clock::now();
        (void)aggregator->keys(q, &probes);
        const Clock::time_point t1 = Clock::now();
        const fast::core::QueryResult r = engine->query_signature(q, kTopK);
        t.keys_query_s += seconds_between(t0, t1);
        t.query_s += seconds_since(t1);
        ++t.queries;
        t.candidates += r.candidates;
        t.bucket_probes += r.bucket_probes;
        t.hits += r.hits.size();
      });
  const auto after = index->metrics().snapshot();
  LayerTally sum;
  for (const auto& t : tally) {
    sum.keys_query_s += t.keys_query_s;
    sum.query_s += t.query_s;
    sum.queries += t.queries;
    sum.candidates += t.candidates;
    sum.bucket_probes += t.bucket_probes;
    sum.hits += t.hits;
  }
  report.attempted += sum.queries;
  const double nq = static_cast<double>(sum.queries);

  // Insert-side key derivation, timed over a corpus sample.
  double keys_insert_s = 0, hash_ops = 0;
  constexpr std::size_t kKeySample = 256;
  for (std::size_t i = 0; i < kKeySample; ++i) {
    const auto& sig = corpus[i * (kCorpus / kKeySample)];
    const Clock::time_point t0 = Clock::now();
    (void)aggregator->keys(sig, nullptr);
    keys_insert_s += seconds_since(t0);
    hash_ops += static_cast<double>(aggregator->insert_hash_ops(sig));
  }

  const double keys_query_us = sum.keys_query_s / nq * 1e6;
  const double probe_rank_us = sum.query_s / nq * 1e6 - keys_query_us;
  const double cands = static_cast<double>(sum.candidates) / nq;
  report.metric("sa.keys_insert_us", keys_insert_s / kKeySample * 1e6, "us");
  report.metric("sa.keys_query_us", keys_query_us, "us");
  report.metric("sa.hash_ops_per_sig", hash_ops / kKeySample, "count");
  report.metric("chs.bucket_probes_per_query",
                static_cast<double>(sum.bucket_probes) / nq, "count");
  report.metric("chs.slot_reads_per_query",
                static_cast<double>(counter_of(after, "chs.slot_reads") -
                                    counter_of(before, "chs.slot_reads")) /
                    nq,
                "count");
  report.metric("chs.load_factor", gauge_of(after, "chs.load_factor"), "frac");
  report.metric("chs.kicks_per_insert",
                gauge_of(after, "chs.total_kicks") /
                    static_cast<double>(counter_of(after, "index.inserts")),
                "count");
  report.metric("rank.candidates_per_query", cands, "count");
  report.metric("rank.probe_rank_us", probe_rank_us, "us");
  report.metric("rank.us_per_candidate", probe_rank_us / cands, "us");
  report.metric("rank.useful_frac", static_cast<double>(sum.hits) /
                                        static_cast<double>(sum.candidates),
                "frac");
  report.metric("trace.overhead_frac",
                ops_per_s / (nq / traced_wall_s) - 1.0, "frac");
  return report;
}

}  // namespace perfbench
