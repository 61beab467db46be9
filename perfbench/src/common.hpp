// Shared plumbing of the FAST performance benchmark: run options, the
// result record each workload fills, latency samples, process metrics,
// and the synthetic signature corpus shaped like the repository's own
// FE/SM output.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/result.hpp"
#include "hash/sparse_signature.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "vision/pca.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Deliberate fault for the gate's own test: "" (none), "wrong_answer"
  /// or "lost_write".
  std::string inject;
  std::string server_bin;  ///< fast_server binary (serve workload)
  std::string work_dir;    ///< scratch directory for durable state
  double slo_p50_ms = 0.5;  ///< serve: query p50 limit of slo_rate_per_s
  std::vector<int> cpus;    ///< ids of the CPUs this process may run on
  std::size_t nproc = 1;    ///< cpus.size()
};

/// Latency (or any) samples with interpolated percentiles.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  std::size_t size() const noexcept { return v_.size(); }
  /// Linear interpolation between closest ranks; p in [0, 100].
  double percentile(double p) const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
};

/// What one run reports: the metrics of its mode, op counts, and every
/// correctness violation found.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A percentile-p latency `ms` estimated from `samples` samples, as
  /// metric `name`. Tails are reported unconditionally, so every run of a
  /// workload emits the same metrics; a note flags an estimate with fewer
  /// than ten samples beyond it.
  void tail(const std::string& name, double ms, std::size_t samples,
            double p);
  /// Human-readable key=value context line (printed before the result).
  void note(const std::string& line);
  void violation(const std::string& what);

  bool correct() const noexcept { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  const std::vector<std::string>& notes() const { return notes_; }

  /// The one-line JSON result: correct, attempted, failed, metrics.
  std::string json() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> violations_;
};

/// Runs `threads` workers, each calling fn(worker, iteration) back to back
/// until `seconds` have elapsed (an op started before the deadline runs to
/// completion). Returns the wall time from start to the last worker's end.
template <typename Fn>
double closed_loop(std::size_t threads, double seconds, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i = 0; Clock::now() < deadline; ++i) fn(w, i);
    });
  }
  for (auto& t : pool) t.join();
  return seconds_since(start);
}

/// Runs fn(i) for every i in [0, n) across `threads` workers.
template <typename Fn>
void parallel_for(std::size_t threads, std::size_t n, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (auto& t : pool) t.join();
}

/// Median of a small sample (set-up repetitions, chunk figures).
double median(std::vector<double> v);

/// Resident set of this process (after returning freed heap to the OS) or
/// of another process, in MiB.
double rss_mb_self();
double rss_mb_of(int pid);

/// Registry helpers: counter value, gauge value, histogram sum (0 when the
/// instrument is absent).
std::uint64_t counter_of(const fast::util::MetricsSnapshot& s,
                         const std::string& name);
double gauge_of(const fast::util::MetricsSnapshot& s, const std::string& name);
double hist_sum_of(const fast::util::MetricsSnapshot& s,
                   const std::string& name);

/// Deterministic random eigenspace for signature-only indexes: the wire and
/// signature paths never run FE, so the PCA model is never exercised.
fast::vision::PcaModel placeholder_pca();

/// Signatures shaped like the repository's FE/SM output: about 1.86K of
/// 16384 bits set, grouped into near-duplicate clusters whose popularity
/// is zipf-distributed. Bit positions are uniform, which puts the Jaccard
/// similarity of unrelated signatures near 0.06 and of two members of one
/// cluster near 0.27.
class SignatureModel {
 public:
  static constexpr std::uint32_t kBits = 16384;
  static constexpr std::size_t kSetBits = 1860;

  SignatureModel(std::uint64_t seed, std::size_t clusters, double zipf_skew);

  /// Draws a cluster by popularity.
  std::size_t pick_cluster(fast::util::Rng& rng) const;
  /// A fresh near-duplicate of cluster `c`.
  fast::hash::SparseSignature member(std::size_t c, fast::util::Rng& rng) const;

 private:
  std::vector<fast::hash::SparseSignature> centers_;
  fast::util::ZipfDistribution zipf_;
};

/// Exact top-k of `query` over (ids, corpus) by Jaccard, ties broken by
/// ascending id — the ordering the index's rank stage uses.
std::vector<fast::core::ScoredId> exact_top_k(
    const fast::hash::SparseSignature& query,
    const std::vector<fast::hash::SparseSignature>& corpus,
    const std::vector<std::uint64_t>& ids, std::size_t k);

/// Share of the true top-k found in `got`. Ties at the k-th true score are
/// interchangeable: a returned hit whose true similarity (recomputed by
/// `true_score`, never taken from the answer) reaches that score counts.
double recall_at_k(const std::vector<fast::core::ScoredId>& got,
                   const std::vector<fast::core::ScoredId>& truth,
                   std::size_t k,
                   const std::function<double(std::uint64_t)>& true_score);

/// Recursively removes `path` (ignores a missing one).
void remove_tree(const std::string& path);

/// A measured value with all its significant digits (%.10g).
std::string fmt(double v);

// The four workloads (one translation unit each). Each builds a fresh index
// or server from opts.seed, measures for opts.seconds and fills a Report:
// end-to-end metrics when !opts.trace, per-layer metrics when opts.trace.
Report run_search(const Options& opts);
Report run_ingest(const Options& opts);
Report run_image(const Options& opts);
Report run_serve(const Options& opts);

}  // namespace perfbench
