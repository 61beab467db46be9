// Parallel query execution — and the mutating facade the network server
// routes through — over one IndexBackend (flat or tiered).
//
// Native side: a thread pool fans independent queries (and their probe
// work) across host cores. Simulated side: per-query probe tasks are
// scheduled onto the modeled cluster/multicore (sim::ClusterModel) to
// produce the latency series of Fig. 4 (concurrent request batches) and
// Fig. 7 (per-query latency vs. core count). Against a tiered index the
// batch runs concurrently with ingest and compaction.
//
// Write facade: insert/erase passthroughs route through the backend,
// preserving WAL durability. Engine-routed writes are bit-identical to
// calling the index directly (tests/server_test.cpp compares the live sets
// and answers). Thread-safety is the backend's (core/index_backend.hpp):
// TieredIndex synchronizes internally; a flat FastIndex is guarded by the
// flat backend's shared_mutex (queries shared, mutations exclusive).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/fast_index.hpp"
#include "core/index_backend.hpp"
// QueryEngine(TieredIndex&) binds to the IndexBackend& constructor; callers
// serving a tier need only this header.
#include "core/tiered_index.hpp"
#include "sim/cluster_model.hpp"
#include "util/thread_pool.hpp"

namespace fast::core {

struct BatchOptions {
  std::size_t top_k = 10;
  /// Parallel slots of the simulated platform serving the batch
  /// (nodes * cores_per_node of the paper's cluster by default — set from
  /// the index's CostModel when 0).
  std::size_t sim_slots = 0;
};

struct BatchReport {
  std::vector<QueryResult> results;
  double sim_mean_latency_s = 0;  ///< mean request completion time
  double sim_makespan_s = 0;      ///< batch completion time
  double native_wall_s = 0;       ///< host wall-clock for the whole batch
};

class QueryEngine {
 public:
  /// Serves a caller-owned flat index through the locking flat backend.
  /// `threads` native worker threads (0 = hardware concurrency).
  explicit QueryEngine(FastIndex& index, std::size_t threads = 0);
  /// Serves a caller-owned backend (a TieredIndex is one).
  explicit QueryEngine(IndexBackend& backend, std::size_t threads = 0);

  /// Serves an index recovered from opts.dir (open_backend). The engine
  /// owns the recovered backend — flat or tiered per config.tier.enabled.
  static storage::StatusOr<std::unique_ptr<QueryEngine>> open(
      FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
      RecoveryStats* stats = nullptr, std::size_t threads = 0);

  /// Runs a batch of signature queries in parallel and computes the
  /// simulated batch latency under `options.sim_slots` parallel servers.
  BatchReport run_batch(std::span<const hash::SparseSignature> queries,
                        const BatchOptions& options = {});

  /// Simulated latency of one already-executed query on a `cores`-way
  /// multicore: the makespan of its independent probe/rank tasks (Fig. 7).
  static double simulated_query_latency(const QueryResult& result,
                                        std::size_t cores);

  // --- Mutating facade (the server's unit of work) ---

  /// Routes one signature insert through the backend; WAL-durable when the
  /// backend is.
  InsertResult insert_signature(std::uint64_t id,
                                const hash::SparseSignature& signature) {
    return backend_.insert_signature(id, signature);
  }
  /// Batch variant: items apply in order; per-item results match
  /// insert_signature(). One writer-lock round-trip on a flat backend.
  std::vector<InsertResult> insert_batch(std::span<const EngineWrite> items) {
    return backend_.insert_batch(items);
  }
  /// Erases one id; false when unknown.
  bool erase(std::uint64_t id) { return backend_.erase(id); }
  /// Erases each id (skipping unknowns); returns the number erased.
  std::size_t erase_batch(std::span<const std::uint64_t> ids) {
    return backend_.erase_batch(ids);
  }

  /// One signature query through the backend. Safe to call concurrently
  /// with the mutating facade.
  QueryResult query_signature(const hash::SparseSignature& signature,
                              std::size_t k) const {
    return backend_.query_signature(signature, k);
  }

  /// Backend config (the server validates wire-signature geometry here).
  const FastConfig& config() const noexcept { return backend_.config(); }
  /// The backend's metrics registry; the server registers its instruments
  /// here so one scrape covers pipeline and serving metrics together.
  util::MetricsRegistry& metrics() const noexcept {
    return backend_.metrics();
  }

  /// Live images in the backend.
  std::size_t size() const { return backend_.size(); }
  /// True when backend mutations are WAL-logged.
  bool durable() const noexcept { return backend_.durable(); }
  /// Fsyncs buffered WAL records (group-commit tail); the server calls
  /// this after draining so every acked write is on disk before exit.
  storage::Status sync_wal() { return backend_.sync_wal(); }
  /// Snapshots the backend (requires a durable engine).
  storage::Status save_snapshot() { return backend_.save_snapshot(); }

 private:
  /// Fills the simulated-latency fields from the executed results.
  void finish_report(BatchReport& report, std::size_t sim_slots) const;

  /// The flat adapter built for QueryEngine(FastIndex&), or the backend
  /// open() recovered; declared before backend_ so it outlives the binding.
  std::unique_ptr<IndexBackend> owned_;
  IndexBackend& backend_;
  util::ThreadPool pool_;
  util::Counter* batches_ = nullptr;
  util::Histogram* batch_size_ = nullptr;
  util::Histogram* batch_wall_s_ = nullptr;
  util::Gauge* last_sim_mean_s_ = nullptr;
  util::Gauge* last_sim_makespan_s_ = nullptr;
};

}  // namespace fast::core
