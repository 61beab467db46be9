// Result records returned by the FAST index operations, carrying both the
// answers and the simulated-cost accounting that drives the figures.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/sim_clock.hpp"

namespace fast::core {

struct ScoredId {
  std::uint64_t id = 0;
  double score = 0;  ///< similarity in [0, 1] (Bloom-signature Jaccard)
};

/// Keeps the k best hits, best first: score descending, then id ascending
/// (the deterministic tie-break every backend and the shard gather share).
inline void keep_top_k(std::vector<ScoredId>& hits, std::size_t k) {
  const std::size_t keep = std::min(k, hits.size());
  std::partial_sort(hits.begin(),
                    hits.begin() + static_cast<std::ptrdiff_t>(keep),
                    hits.end(), [](const ScoredId& a, const ScoredId& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.id < b.id;
                    });
  hits.resize(keep);
}

struct QueryResult {
  std::vector<ScoredId> hits;      ///< ranked, best first
  std::size_t candidates = 0;      ///< ids inspected before ranking
  std::size_t bucket_probes = 0;   ///< cuckoo probes across tables
  sim::SimClock cost;              ///< simulated platform cost
  /// Per-table probe costs (seconds): the independent work units that a
  /// multicore can execute in parallel (Fig. 7).
  std::vector<double> parallel_tasks;
};

struct InsertResult {
  bool ok = true;              ///< false if cuckoo placement failed (rehash)
  std::size_t rehashes = 0;    ///< rehash events triggered by this insert
  sim::SimClock cost;
};

}  // namespace fast::core
