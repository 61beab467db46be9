// TieredIndex — LSM-style layered assembly of the FAST pipeline
// (DESIGN.md §3f).
//
// Layout: ids are hash-partitioned across a few independent LANES. Each
// lane holds one small mutable MemtableIndex guarded by its own
// shared_mutex, plus a newest-first list of ImmutableSegments published
// as one shared_ptr (readers copy it under a leaf mutex and then read the
// immutable segments with no lock). Inserts derive bucket keys
// OUTSIDE any lock, then take only their lane's mutex for the bounded
// placement work; once a memtable reaches tier.seal_threshold mentions it
// is sealed — an O(1) move into a frozen segment — off the hot path.
// Queries take each lane's mutex in shared mode only for the memtable
// probe; segments are read with no lock at all, and a per-segment bloom
// summary skips segments that cannot contain any probe key. A background
// thread finalizes segment blooms and merges adjacent segment runs under a
// size-tiered policy (tier.compact_fanin / compact_trigger) without ever
// blocking readers: merges build a fresh frozen state aside and swap the
// published list pointer.
//
// Shadowing: within a lane, the newest layer mentioning an id owns it
// (memtable, then segments newest→oldest); a mention is either a live
// signature or a tombstone. Because candidate generation unions group
// members across layers and ranking is a pure function of live signatures,
// query results are identical to a single flat FastIndex holding the same
// live set — tier_test asserts hit-and-score equality.
//
// FE+SM, SA key derivation and the query scaffold (ranking, metrics,
// QueryProfile) come from the shared IndexFront, exactly as for FastIndex.
// Durability is the shared DurableLog and recover() driver: one global WAL
// (records logged under the lane lock so per-lane apply order equals
// sequence order), and full-tier snapshots — manifest of live segments per
// lane + one CRC-framed section per memtable and segment — with the same
// rotation/retention as FastIndex.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/durability.hpp"
#include "core/index_backend.hpp"
#include "core/index_front.hpp"
#include "core/memtable_index.hpp"
#include "core/result.hpp"
#include "core/segment.hpp"
#include "hash/sparse_signature.hpp"
#include "img/image.hpp"
#include "storage/snapshot.hpp"
#include "vision/pca.hpp"

namespace fast::core {

class TieredIndex final : public IndexBackend {
 public:
  /// Newest-first; immutable once published (replaced wholesale).
  using SegmentList = std::vector<std::shared_ptr<const ImmutableSegment>>;

  TieredIndex(FastConfig config, vision::PcaModel pca);
  ~TieredIndex() override;

  TieredIndex(const TieredIndex&) = delete;
  TieredIndex& operator=(const TieredIndex&) = delete;

  /// Durable tiered index in opts.dir: newest intact snapshot (manifest +
  /// segments + memtables), WAL tail replayed through the normal mutation
  /// path (so seals re-fire at the same thresholds), fresh WAL segment.
  /// Same error contract as FastIndex::open_or_recover.
  static storage::StatusOr<std::unique_ptr<TieredIndex>> open_or_recover(
      FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
      RecoveryStats* stats = nullptr);

  /// Live images (inserted and not erased), across all layers.
  std::size_t size() const noexcept override {
    return live_.load(std::memory_order_relaxed);
  }
  std::size_t lane_count() const noexcept { return lanes_.size(); }
  std::size_t segment_count() const;
  /// Tombstones still pending compaction (memtables + segments).
  std::size_t tombstone_count() const;
  std::size_t index_bytes() const override;

  bool durable() const noexcept override { return log_.durable(); }
  std::uint64_t last_seq() const;

  const IndexFront& front() const noexcept override { return front_; }

  // --- Mutations ---
  InsertResult insert_signature(
      std::uint64_t id, const hash::SparseSignature& signature) override;
  /// FE+SM fans across `pool`; placement runs in item order.
  std::vector<InsertResult> insert_batch(
      std::span<const BatchImage> items,
      util::ThreadPool* pool = nullptr) override;
  /// Per-lane locking only: batches from different threads interleave.
  std::vector<InsertResult> insert_batch(
      std::span<const EngineWrite> items) override;
  bool erase(std::uint64_t id) override;
  /// Erases each id (skipping unknowns); returns the number erased.
  std::size_t erase_batch(std::span<const std::uint64_t> ids) override;

  // --- Queries ---
  QueryResult query_signature(const hash::SparseSignature& signature,
                              std::size_t k) const override;
  std::vector<QueryResult> query_batch(
      std::span<const img::Image* const> images, std::size_t k,
      util::ThreadPool* pool = nullptr) const override;

  /// Stored signature of a live id (copy: the owning layer may be compacted
  /// away at any time); nullopt when absent or tombstoned.
  std::optional<hash::SparseSignature> find_signature(
      std::uint64_t id) const override;

  /// Visits every live (id, signature) pair across all layers, honoring
  /// shadowing (the newest layer mentioning an id owns it, same rule as
  /// find_signature). Used by the sharded facade to rebuild its routing
  /// summaries after recovery; not a hot path.
  void for_each_live_signature(
      const std::function<void(std::uint64_t, const hash::SparseSignature&)>&
          fn) const override;

  // --- Durability ---
  storage::Status save_snapshot() override;
  /// Forces an fsync of WAL records buffered by wal_sync_every > 1 (see
  /// FastIndex::sync_wal). No-op when already synced or non-durable.
  storage::Status sync_wal() override;

  // --- Maintenance (tests / benches) ---
  /// Seals every non-empty memtable regardless of threshold.
  void seal_active();
  /// One synchronous maintenance pass: finalizes segment blooms, then
  /// merges every eligible run. Returns true when anything was merged.
  /// Safe to call concurrently with the background worker (serialized).
  bool compact_once();
  /// Blocks until the background worker has drained its queue.
  void wait_idle() const;

 private:
  /// A lane's published segment list. Not std::atomic<std::shared_ptr>:
  /// libstdc++ 12's load() drops its internal lock bit with a relaxed
  /// RMW, so its read of the stored pointer is not ordered before the next
  /// store's write, a data race under the C++ memory model (TSan reports
  /// it). A leaf mutex held only for the pointer copy has no such gap.
  class PublishedSegments {
   public:
    std::shared_ptr<const SegmentList> load() const {
      std::lock_guard<std::mutex> lk(mutex_);
      return list_;
    }
    /// The replaced list is released by the caller, outside the lock.
    void store(std::shared_ptr<const SegmentList> list) {
      std::lock_guard<std::mutex> lk(mutex_);
      list_.swap(list);
    }

   private:
    mutable std::mutex mutex_;
    std::shared_ptr<const SegmentList> list_;
  };

  struct Lane {
    mutable std::shared_mutex mem_mutex;
    std::unique_ptr<MemtableIndex> mem;
    /// Replaced under publish_mutex (seal prepend, bloom upgrade,
    /// compaction splice); readers never take publish_mutex.
    PublishedSegments segments;
    std::mutex publish_mutex;
  };

  /// Instruments of the tiered layout; the shared ones live in
  /// IndexFront::Instruments and DurableLog.
  struct TierMetrics {
    util::Histogram* query_wall_s = nullptr;
    util::Gauge* tier_lanes = nullptr;
    util::Gauge* tier_memtable_entries = nullptr;
    util::Gauge* tier_tombstones = nullptr;
    util::Counter* tier_seals = nullptr;
    util::Counter* tier_segment_skips = nullptr;
    util::Gauge* segment_count = nullptr;
    util::Counter* compaction_runs = nullptr;
    util::Counter* compaction_dropped_tombstones = nullptr;
    util::Histogram* compaction_merge_s = nullptr;
    util::Histogram* compaction_merge_entries = nullptr;
    util::Histogram* compaction_merged_segments = nullptr;
  };

  TieredIndex(FastConfig config, vision::PcaModel pca, bool start_worker);

  void init_metrics();
  std::size_t lane_of(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> 32) %
           lanes_.size();
  }

  /// Newest segment mention of `id` in the lane is a live signature.
  static bool segments_contain_live(const Lane& lane, std::uint64_t id);

  /// Mutation bodies; `log` is false on WAL replay. Both take the lane
  /// lock themselves.
  InsertResult insert_internal(std::uint64_t id,
                               const hash::SparseSignature& signature,
                               bool log);
  bool erase_internal(std::uint64_t id, bool log);

  /// Caller holds lane.mem_mutex exclusively.
  bool maybe_seal_locked(Lane& lane, std::size_t lane_idx);
  void seal_locked(Lane& lane, std::size_t lane_idx);

  /// Wakes the worker, or runs the pass inline when there is none
  /// (tier.background == false, or during recovery replay).
  void schedule_maintenance();
  void worker_loop();
  void stop_worker();

  /// Upgrades un-finalized segments of `lane` with their bloom summary.
  void finalize_blooms(Lane& lane);
  /// Merges one eligible run in `lane`; false when nothing is eligible.
  bool try_compact_lane(Lane& lane);
  /// Swaps `count` entries starting at the entry with id `first_id` for
  /// `replacement` (empty = plain removal) in the published list.
  void splice_segments(Lane& lane, std::uint64_t first_id, std::size_t count,
                       std::shared_ptr<const ImmutableSegment> replacement);
  void publish_tier_gauges();

  /// log_.append under wal_mutex_ (caller holds the record's lane lock).
  void wal_log(std::uint8_t type, std::uint64_t id,
               std::span<const std::uint8_t> payload);
  storage::SnapshotFile build_snapshot_locked() const;
  bool restore_snapshot(const storage::SnapshotFile& snapshot);

  IndexFront front_;
  /// config() with the cuckoo store pre-sized for one seal interval, so a
  /// replacement memtable does not re-pay proactive doubling every cycle.
  FastConfig mem_config_;
  std::size_t tables_ = 0;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<std::size_t> live_{0};
  std::atomic<std::uint64_t> next_segment_id_{1};
  // Memtable content tallies (signed: deltas are applied under lane locks
  // but read lock-free by gauges). Segment tallies come from the published
  // immutable lists instead.
  std::atomic<std::int64_t> mem_entries_{0};
  std::atomic<std::int64_t> mem_tombstones_{0};

  TierMetrics m_;

  // Durability (inert for a purely in-memory tier). wal_mutex_ serializes
  // log_ appends, syncs and the snapshot publish; lock order is
  // lane.mem_mutex -> wal_mutex_, and the snapshot path takes every lane
  // lock (in index order) first, which also quiesces appends.
  mutable std::mutex wal_mutex_;
  DurableLog log_;

  // Background maintenance. compaction_mutex_ serializes whole passes
  // (worker vs explicit compact_once); work_mutex_ guards the wake flags.
  std::mutex compaction_mutex_;
  mutable std::mutex work_mutex_;
  mutable std::condition_variable work_cv_;
  mutable std::condition_variable idle_cv_;
  bool work_pending_ = false;
  bool worker_busy_ = false;
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace fast::core
