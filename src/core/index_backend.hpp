// IndexBackend — the one local-index interface behind QueryEngine,
// ShardedFastIndex and fast_server (DESIGN.md §3d).
//
// Each FAST cloud node runs one local index (FE → SM → SA → CHS). It comes
// in two implementations: the flat FastIndex and the LSM-style TieredIndex
// (DESIGN.md §3f). Callers hold an IndexBackend and never branch on which
// one they got; make_backend/open_backend are the only code that reads
// config.tier.enabled to choose.
//
// Every operation is safe to call concurrently with every other:
//  - TieredIndex implements the interface directly. It synchronizes
//    internally (per-lane memtable locks, lock-free segment reads,
//    background compaction), so writers in different lanes and all queries
//    proceed in parallel.
//  - The flat backend is a locking adapter over a single-writer FastIndex:
//    one shared_mutex, queries shared and mutations exclusive. FE+SM runs
//    outside the lock, and each batch write takes the writer lock once.
//    Costs equal FastIndex's own insert/query accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/durability.hpp"
#include "core/index_front.hpp"
#include "core/result.hpp"
#include "hash/sparse_signature.hpp"
#include "img/image.hpp"
#include "vision/pca.hpp"

namespace fast::util {
class ThreadPool;
class MetricsRegistry;
}

namespace fast::core {

class FastIndex;

/// One signature write: a precomputed signature and its id (the shape
/// mobile clients ship — the server protocol carries exactly this).
struct EngineWrite {
  std::uint64_t id = 0;
  hash::SparseSignature signature;
};

class IndexBackend {
 public:
  IndexBackend() = default;
  IndexBackend(const IndexBackend&) = delete;
  IndexBackend& operator=(const IndexBackend&) = delete;
  virtual ~IndexBackend() = default;

  /// The shared FE+SM / SA / query scaffold (core/index_front.hpp). The
  /// FE+SM entry points below go through it and never take an index lock.
  virtual const IndexFront& front() const noexcept = 0;

  // --- FE + SM ---
  hash::SparseSignature summarize(const img::Image& image) const {
    return front().summarize(image);
  }
  /// The FE + Bloom-hash charge every image-ingest path adds on top of
  /// insert_signature (IndexFront::frontend_insert_cost).
  sim::SimClock frontend_insert_cost() const noexcept {
    return front().frontend_insert_cost();
  }

  // --- Mutations (WAL-logged when durable()) ---
  /// summarize, then insert_signature, plus the frontend cost.
  InsertResult insert(std::uint64_t id, const img::Image& image) {
    return front().insert_image(*this, id, image);
  }
  virtual InsertResult insert_signature(
      std::uint64_t id, const hash::SparseSignature& signature) = 0;
  /// FE+SM fans across `pool` when given; placement runs in item order and
  /// per-item results match insert().
  virtual std::vector<InsertResult> insert_batch(
      std::span<const BatchImage> items, util::ThreadPool* pool = nullptr) = 0;
  /// Items apply in order; per-item results match insert_signature().
  virtual std::vector<InsertResult> insert_batch(
      std::span<const EngineWrite> items) = 0;
  /// False when the id is unknown.
  virtual bool erase(std::uint64_t id) = 0;
  /// Erases each id (skipping unknowns); returns the number erased.
  virtual std::size_t erase_batch(std::span<const std::uint64_t> ids) = 0;

  // --- Queries ---
  /// summarize, then query_signature, plus the frontend cost.
  QueryResult query(const img::Image& image, std::size_t k) const {
    return front().query_image(*this, image, k);
  }
  virtual QueryResult query_signature(const hash::SparseSignature& signature,
                                      std::size_t k) const = 0;
  /// FE+SM and probe/rank fan across `pool` when given; results match
  /// per-item query() calls.
  virtual std::vector<QueryResult> query_batch(
      std::span<const img::Image* const> images, std::size_t k,
      util::ThreadPool* pool = nullptr) const = 0;
  /// Stored signature of a live id (a copy); nullopt when absent.
  virtual std::optional<hash::SparseSignature> find_signature(
      std::uint64_t id) const = 0;
  /// Visits every live (id, signature) pair in unspecified order. Used to
  /// rebuild derived state (shard routing summaries); not a hot path.
  virtual void for_each_live_signature(
      const std::function<void(std::uint64_t, const hash::SparseSignature&)>&
          fn) const = 0;

  // --- State and durability ---
  /// Live images.
  virtual std::size_t size() const = 0;
  /// In-memory index bytes (the FAST column of Table IV).
  virtual std::size_t index_bytes() const = 0;
  const FastConfig& config() const noexcept { return front().config(); }
  /// Per-stage registry (DESIGN.md §3b); thread-safe.
  util::MetricsRegistry& metrics() const noexcept { return front().metrics(); }
  /// True when mutations are WAL-logged (opened via open_backend).
  virtual bool durable() const noexcept = 0;
  /// Snapshot + WAL rotation; requires durable().
  virtual storage::Status save_snapshot() = 0;
  /// Fsyncs WAL records buffered by wal_sync_every > 1; no-op otherwise.
  virtual storage::Status sync_wal() = 0;
};

/// A fresh in-memory backend: TieredIndex when config.tier.enabled, else
/// the locking flat backend over an owned FastIndex.
std::unique_ptr<IndexBackend> make_backend(FastConfig config,
                                           vision::PcaModel pca);

/// A durable backend recovered (or initialized) in opts.dir, dispatching
/// on config.tier.enabled like make_backend. Same error contract as
/// FastIndex::open_or_recover.
storage::StatusOr<std::unique_ptr<IndexBackend>> open_backend(
    FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
    RecoveryStats* stats = nullptr);

/// The locking flat backend over a caller-owned FastIndex, which must
/// outlive it. Mutate `index` only through the returned backend while
/// other threads use it.
std::unique_ptr<IndexBackend> borrow_backend(FastIndex& index);

}  // namespace fast::core
