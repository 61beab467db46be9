// ingest — signature inserts into a durable tiered index, with retention
// erases and a small share of read-your-write queries. The window is long
// enough for many memtable seals and compaction runs; it ends with a
// snapshot, a WAL tail, sync_wal, a reopen through open_or_recover, and a
// check that every acknowledged, not-erased id survived and every erased
// id stayed gone.
#include <algorithm>
#include <deque>
#include <memory>

#include "common.hpp"
#include "core/pipeline/factory.hpp"
#include "core/tiered_index.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kLive = 2000;       // retention cap on live images
constexpr std::size_t kPool = 4096;       // distinct signatures inserted
constexpr std::size_t kClusters = 256;
constexpr std::size_t kSealThreshold = 256;
constexpr std::size_t kWalSyncEvery = 32;  // WAL group-commit cadence
constexpr std::size_t kRywEvery = 50;      // every 50th op is a RYW query
constexpr std::size_t kTailInserts = 512;  // WAL records after the snapshot
constexpr std::size_t kTailErases = 50;  // leaves a partial WAL group to sync
constexpr std::size_t kTopK = 10;
constexpr int kReopens = 3;
constexpr double kWarmupS = 0.5;

/// One writer's acknowledged history.
struct Writer {
  std::uint64_t next = 0;
  std::deque<std::uint64_t> live;  // oldest first: retention order
  std::vector<std::uint64_t> erased;
  Samples insert_ms, query_ms;
  std::uint64_t erases = 0;
  std::uint64_t failed = 0;
  std::uint64_t ryw_misses = 0;
  // Traced phase only.
  double keys_insert_s = 0, keys_query_s = 0, query_s = 0;
  std::uint64_t traced_inserts = 0, traced_queries = 0;
  std::uint64_t candidates = 0, bucket_probes = 0, hits = 0;
};

std::uint64_t id_of(std::size_t w, std::uint64_t n) {
  return (static_cast<std::uint64_t>(w + 1) << 40) | n;
}

}  // namespace

Report run_ingest(const Options& opts) {
  Report report;
  const std::size_t writers =
      std::max<std::size_t>(1, std::min<std::size_t>(3, opts.nproc - 1));
  report.note("threads: writers=" + std::to_string(writers) +
              " compaction=1 wal_sync_every=" + std::to_string(kWalSyncEvery) +
              " seal_threshold=" + std::to_string(kSealThreshold));

  const SignatureModel model(opts.seed * 0x9e3779b97f4a7c15ULL + 2, kClusters,
                             0.9);
  fast::util::Rng rng(opts.seed ^ 0x1a6e57);
  std::vector<fast::hash::SparseSignature> pool;
  for (std::size_t i = 0; i < kPool; ++i) {
    pool.push_back(model.member(model.pick_cluster(rng), rng));
  }
  // Writers own disjoint id ranges; an id's signature is a pure function
  // of the id, so the checks below can recompute it.
  const auto sig_of = [&](std::uint64_t id) -> const auto& {
    return pool[((id >> 40) * 1009 + (id & 0xffffffffffULL)) % kPool];
  };

  fast::core::FastConfig config;
  config.tier.enabled = true;
  config.tier.seal_threshold = kSealThreshold;
  fast::core::DurabilityOptions durability;
  durability.dir = opts.work_dir + "/ingest";
  durability.wal_sync_every = kWalSyncEvery;

  std::unique_ptr<fast::core::TieredIndex> index;
  std::vector<Writer> state;
  const auto insert_one = [&](std::size_t w) {
    Writer& s = state[w];
    const std::uint64_t id = id_of(w, s.next++);
    const Clock::time_point t0 = Clock::now();
    index->insert_signature(id, sig_of(id));
    s.insert_ms.add(seconds_since(t0) * 1e3);
    s.live.push_back(id);
  };

  std::vector<double> setup_s;
  for (int rep = 0; rep < (opts.trace ? 1 : 3); ++rep) {
    index.reset();
    remove_tree(durability.dir);
    state.assign(writers, Writer{});
    const Clock::time_point t0 = Clock::now();
    auto opened = fast::core::TieredIndex::open_or_recover(
        config, placeholder_pca(), durability);
    if (!opened.ok()) {
      report.violation("ingest open failed: " + opened.status().message());
      return report;
    }
    index = std::move(opened).value();
    parallel_for(writers, writers, [&](std::size_t w) {
      for (std::size_t i = 0; i < kLive / writers; ++i) insert_one(w);
    });
    setup_s.push_back(seconds_since(t0));
  }
  const auto aggregator = fast::core::pipeline::make_aggregator(config);

  bool traced = false;
  const auto op = [&](std::size_t w, std::size_t i) {
    Writer& s = state[w];
    if (i % kRywEvery == kRywEvery - 1) {
      const std::uint64_t id = s.live.back();
      const auto& sig = sig_of(id);
      if (traced) {
        std::vector<std::vector<std::uint64_t>> probes;
        const Clock::time_point k0 = Clock::now();
        (void)aggregator->keys(sig, &probes);
        s.keys_query_s += seconds_since(k0);
      }
      const Clock::time_point t0 = Clock::now();
      const fast::core::QueryResult r = index->query_signature(sig, kTopK);
      const double dt = seconds_since(t0);
      s.query_ms.add(dt * 1e3);
      bool found = false;
      for (const auto& h : r.hits) found = found || h.id == id;
      if (!found) ++s.ryw_misses;
      if (traced) {
        s.query_s += dt;
        ++s.traced_queries;
        s.candidates += r.candidates;
        s.bucket_probes += r.bucket_probes;
        s.hits += r.hits.size();
      }
    } else if (s.live.size() > kLive / writers) {
      const std::uint64_t id = s.live.front();
      s.live.pop_front();
      if (!index->erase(id)) ++s.failed;
      ++s.erases;
      s.erased.push_back(id);
    } else {
      if (traced) {
        const Clock::time_point k0 = Clock::now();
        (void)aggregator->keys(sig_of(id_of(w, s.next)), nullptr);
        s.keys_insert_s += seconds_since(k0);
        ++s.traced_inserts;
      }
      insert_one(w);
    }
  };
  /// Collects and resets every writer's samples; the count includes erases.
  const auto drain_samples = [&] {
    Samples ins, qry;
    std::uint64_t n = 0;
    for (auto& s : state) {
      ins.append(s.insert_ms);
      qry.append(s.query_ms);
      n += s.insert_ms.size() + s.query_ms.size() + s.erases;
      s.insert_ms = s.query_ms = Samples();
      s.erases = 0;
    }
    return std::make_tuple(ins, qry, n);
  };

  closed_loop(writers, kWarmupS, op);
  drain_samples();
  const auto before = index->metrics().snapshot();
  // One window; every figure pools all of its ops. A virtual CPU whose
  // host core is shared runs MinHash keys up to twice as slowly, flipping
  // within a second, so whole-window figures average over both speeds where
  // a chunk's figure depends on which one it caught.
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const double wall_s = closed_loop(writers, untraced_s, op);
  const auto [insert_ms, query_ms, window_ops] = drain_samples();
  const std::size_t inserts = insert_ms.size(), queries = query_ms.size();
  report.attempted += window_ops;
  const double ops_per_s = static_cast<double>(window_ops) / wall_s;

  double traced_ops_per_s = 0;
  if (opts.trace) {
    traced = true;
    const double traced_wall_s = closed_loop(writers, opts.seconds / 2, op);
    const auto traced_counts = drain_samples();
    traced_ops_per_s =
        static_cast<double>(std::get<2>(traced_counts)) / traced_wall_s;
    report.attempted += std::get<2>(traced_counts);
  }
  // Settle the tiers (seal every memtable, merge every eligible run) so the
  // snapshot and the size figures do not depend on where a background merge
  // happened to be.
  index->wait_idle();
  index->seal_active();
  while (index->compact_once()) {
  }
  const auto after = index->metrics().snapshot();
  const double bytes_per_item = static_cast<double>(index->index_bytes()) /
                                static_cast<double>(index->size());
  const double rss = rss_mb_self();

  // The gate's own test: drop one acknowledged write behind the tracker.
  if (opts.inject == "lost_write") index->erase(state[0].live.front());

  // End of the window: snapshot, a WAL tail past it, then sync.
  index->wait_idle();
  Clock::time_point t0 = Clock::now();
  const fast::storage::Status snap = index->save_snapshot();
  const double snapshot_write_s = seconds_since(t0);
  if (!snap.ok()) report.violation("save_snapshot: " + snap.message());
  for (std::size_t i = 0; i < kTailInserts; ++i) insert_one(0);
  for (std::size_t i = 0; i < kTailErases; ++i) {
    const std::uint64_t id = state[0].live.front();
    state[0].live.pop_front();
    if (!index->erase(id)) ++state[0].failed;
    state[0].erased.push_back(id);
  }
  report.attempted += kTailInserts + kTailErases;
  t0 = Clock::now();
  const fast::storage::Status synced = index->sync_wal();
  const double sync_ms = seconds_since(t0) * 1e3;
  if (!synced.ok()) report.violation("sync_wal: " + synced.message());
  const auto end = index->metrics().snapshot();
  index->wait_idle();
  index.reset();

  // Reopen several times (each open replays the same snapshot and WAL
  // tail) and check every acknowledged write against the last one.
  // recover_s is the quickest open: recovery is single-threaded, and a
  // virtual CPU whose host core is shared runs it up to twice as slowly
  // for seconds at a time, which only ever adds time.
  fast::core::RecoveryStats stats;
  std::vector<double> recover_runs;
  for (int rep = 0; rep < kReopens; ++rep) {
    index.reset();
    stats = fast::core::RecoveryStats{};
    t0 = Clock::now();
    auto reopened = fast::core::TieredIndex::open_or_recover(
        config, placeholder_pca(), durability, &stats);
    recover_runs.push_back(seconds_since(t0));
    if (!reopened.ok()) {
      report.violation("ingest reopen failed: " +
                       reopened.status().message());
      return report;
    }
    index = std::move(reopened).value();
  }
  const double recover_s =
      *std::min_element(recover_runs.begin(), recover_runs.end());
  std::size_t live_total = 0, missing = 0, resurrected = 0;
  std::uint64_t ryw_misses = 0;
  for (const auto& s : state) {
    live_total += s.live.size();
    for (std::uint64_t id : s.live) {
      const auto sig = index->find_signature(id);
      if (!sig || sig->set_bits() != sig_of(id).set_bits()) ++missing;
    }
    for (std::uint64_t id : s.erased) {
      if (index->find_signature(id)) ++resurrected;
    }
    ryw_misses += s.ryw_misses;
    report.failed += s.failed;
  }
  index.reset();
  remove_tree(durability.dir);
  if (missing > 0) {
    report.violation("ingest: " + std::to_string(missing) +
                     " acknowledged writes missing after reopen");
  }
  if (resurrected > 0) {
    report.violation("ingest: " + std::to_string(resurrected) +
                     " erased ids present after reopen");
  }
  if (ryw_misses > 0) {
    report.violation("ingest: " + std::to_string(ryw_misses) +
                     " read-your-write queries missed their own insert");
  }
  if (report.failed > 0) {
    report.violation("ingest: " + std::to_string(report.failed) +
                     " erases of live ids failed");
  }
  report.note("ingest: inserts=" + std::to_string(inserts) +
              " ryw_queries=" + std::to_string(queries) +
              " live_end=" + std::to_string(live_total) +
              " replayed=" + std::to_string(stats.replayed_records) +
              " recover_s=" + fmt(recover_s) +
              " index_bytes_per_item=" + fmt(bytes_per_item) +
              " rss_mb=" + fmt(rss) +
              " failed_frac=" +
              fmt(static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted)));

  if (!opts.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("insert_p50_ms", insert_ms.percentile(50), "ms");
    report.tail("insert_p99_ms", insert_ms.percentile(99), inserts, 99);
    report.metric("query_p50_ms", query_ms.percentile(50), "ms");
    report.metric("ops_per_s", ops_per_s, "1/s");
    return report;
  }

  Writer sum;
  for (const auto& s : state) {
    sum.keys_insert_s += s.keys_insert_s;
    sum.keys_query_s += s.keys_query_s;
    sum.query_s += s.query_s;
    sum.traced_inserts += s.traced_inserts;
    sum.traced_queries += s.traced_queries;
    sum.candidates += s.candidates;
    sum.bucket_probes += s.bucket_probes;
    sum.hits += s.hits;
  }
  const double nq = static_cast<double>(sum.traced_queries);
  const double keys_query_us = sum.keys_query_s / nq * 1e6;
  const double probe_rank_us = sum.query_s / nq * 1e6 - keys_query_us;
  const double cands = static_cast<double>(sum.candidates) / nq;
  double hash_ops = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    hash_ops += static_cast<double>(aggregator->insert_hash_ops(pool[i]));
  }
  const auto delta = [&](const char* name) {
    return static_cast<double>(counter_of(end, name) -
                               counter_of(before, name));
  };
  report.metric("sa.keys_insert_us",
                sum.keys_insert_s / static_cast<double>(sum.traced_inserts) *
                    1e6,
                "us");
  report.metric("sa.keys_query_us", keys_query_us, "us");
  report.metric("sa.hash_ops_per_sig", hash_ops / 64, "count");
  report.metric("chs.bucket_probes_per_query",
                static_cast<double>(sum.bucket_probes) / nq, "count");
  report.metric("rank.candidates_per_query", cands, "count");
  report.metric("rank.probe_rank_us", probe_rank_us, "us");
  report.metric("rank.us_per_candidate", probe_rank_us / cands, "us");
  report.metric("rank.useful_frac",
                static_cast<double>(sum.hits) /
                    static_cast<double>(sum.candidates),
                "frac");
  report.metric("tier.seals", delta("tier.seals"), "count");
  report.metric("compaction.runs", delta("compaction.runs"), "count");
  report.metric("compaction.merge_s",
                hist_sum_of(end, "compaction.merge_s") -
                    hist_sum_of(before, "compaction.merge_s"),
                "s");
  report.metric("tier.segments_end", gauge_of(after, "segment.count"),
                "count");
  report.metric("tier.segment_skips_per_query",
                (static_cast<double>(counter_of(after, "tier.segment_skips") -
                                     counter_of(before, "tier.segment_skips"))) /
                    static_cast<double>(counter_of(after, "index.queries") -
                                        counter_of(before, "index.queries")),
                "count");
  report.metric("tier.tombstones_end", gauge_of(after, "tier.tombstones"),
                "count");
  report.metric("wal.bytes_per_insert",
                delta("wal.bytes") / delta("index.inserts"), "B");
  report.metric("wal.syncs", delta("wal.syncs"), "count");
  report.metric("wal.sync_ms", sync_ms, "ms");
  report.metric("snapshot.write_s", snapshot_write_s, "s");
  report.metric("snapshot.bytes", gauge_of(end, "snapshot.bytes"), "B");
  report.metric("recovery.open_s", recover_s, "s");
  report.metric("recovery.replayed_records",
                static_cast<double>(stats.replayed_records), "count");
  report.metric("trace.overhead_frac", ops_per_s / traced_ops_per_s - 1.0,
                "frac");
  return report;
}

}  // namespace perfbench
