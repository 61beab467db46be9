// Durability of a FAST index: snapshot + write-ahead log.
//
// An index opened with open_or_recover logs every mutation to the WAL
// BEFORE applying it, fsyncing on a configurable cadence; save_snapshot
// writes a full checksummed image of the index and rotates the log. After a
// crash, open_or_recover loads the newest intact snapshot, replays the WAL
// tail on top, and truncates the torn record of an in-flight append — so
// with wal_sync_every == 1 every acknowledged mutation survives, and the
// recovered index answers queries bit-identically to the pre-crash one
// (DESIGN.md §3d states the invariants; tests/recovery_test.cpp sweeps
// every failure point).
// Both backends hold one DurableLog and recover through the one recover()
// driver, supplying only their snapshot restore and record apply steps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "hash/sparse_signature.hpp"
#include "storage/io.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace fast::util {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
class TraceSpan;
class WallTimer;
}

namespace fast::core {

struct FastConfig;

struct DurabilityOptions {
  /// Directory holding snapshot-*.fast and wal-*.log; created when absent.
  std::string dir;

  /// fsync the WAL after every N appended records. 1 (default) makes every
  /// returned mutation durable; larger values trade the crash window for
  /// ingest throughput, exactly the group-commit knob of a database.
  std::size_t wal_sync_every = 1;

  /// Filesystem to operate through; nullptr = the real one. Tests pass a
  /// storage::FaultInjectingEnv here to crash at a chosen operation.
  storage::Env* env = nullptr;
};

/// What open_or_recover found and did; for observability and tests.
struct RecoveryStats {
  bool loaded_snapshot = false;
  std::uint64_t snapshot_seq = 0;     ///< last_seq of the loaded snapshot
  std::size_t snapshots_skipped = 0;  ///< corrupt snapshots passed over
  std::size_t segments_scanned = 0;   ///< WAL segments read
  std::size_t replayed_records = 0;   ///< WAL records applied on top
  bool wal_torn = false;              ///< truncated a torn tail / header
};

/// FNV-1a over the SM/SA/CHS geometry of a config — every field that
/// changes how persisted index state must be interpreted (Bloom width,
/// aggregator seeds and table counts, storage backend and shape). Frontend
/// and cost-model settings are excluded: they affect future summaries, not
/// the meaning of stored ones. lsh_input_scale is excluded too — it is
/// persisted in the snapshot's params section and restored on load.
std::uint64_t config_fingerprint(const FastConfig& config) noexcept;

class DurableLog;

/// How the recovery driver rebuilds one index.
struct RecoveryHooks {
  /// Builds an index from a snapshot whose config fingerprint matched, or
  /// an empty one when `snapshot` is null (no usable snapshot), and returns
  /// its log; nullptr when the snapshot content does not decode (the
  /// driver then falls back to the next older snapshot).
  std::function<DurableLog*(const storage::SnapshotFile* snapshot)> restore;
  /// Applies one replayed mutation without logging it: an insert of
  /// `signature` (width already checked), or an erase when it is null.
  std::function<void(std::uint64_t id, const hash::SparseSignature* signature)>
      apply;
};

/// The one recovery procedure. Scans opts.dir, restores the newest snapshot
/// that reads back intact through hooks.restore (a corrupt image is skipped
/// and counted; a fingerprint mismatch, a future format version or a
/// filesystem error is a hard error), replays the WAL records past it with
/// gap, signature-width and record-type checks, and opens a fresh WAL
/// segment in the recovered index's log. Records the "recovery.open" span
/// and the recovery.* metrics.
storage::Status recover(const FastConfig& config, const DurabilityOptions& opts,
                        const RecoveryHooks& hooks, RecoveryStats* stats);

/// The write-ahead half of a durable index: the WAL writer and its fsync
/// cadence, the last applied sequence number, the snapshot publish step and
/// the wal.* / snapshot.* / recovery.* instruments. Inert (durable() ==
/// false) unless recover() opened it. Not synchronized: the owning index
/// serializes appends, syncs and publishes.
class DurableLog {
 public:
  explicit DurableLog(util::MetricsRegistry& registry);

  bool durable() const noexcept { return wal_ != nullptr; }
  std::uint64_t last_seq() const noexcept { return last_seq_; }

  /// Logs one record ahead of its application; fsyncs on the configured
  /// cadence. Throws storage::IoError when the append or sync fails — the
  /// mutation must not be applied and the index must be reopened via
  /// open_or_recover.
  void append(std::uint8_t type, std::uint64_t id,
              std::span<const std::uint8_t> payload);

  /// Fsyncs records buffered by a wal_sync_every > 1 cadence. No-op when
  /// already synced or non-durable.
  storage::Status sync();

  /// Publishes `snapshot` (taken at last_seq()): writes it, records its
  /// size on `span` and in snapshot.* (write time read from `timer`), then
  /// rotates the WAL and retires the files the retained previous
  /// generation no longer needs (storage::rotate_wal_and_retire).
  storage::Status publish(const storage::SnapshotFile& snapshot,
                          util::TraceSpan& span, const util::WallTimer& timer);

  /// What save_snapshot returns on a non-durable index.
  static storage::Status not_durable();

 private:
  friend storage::Status recover(const FastConfig&, const DurabilityOptions&,
                                 const RecoveryHooks&, RecoveryStats*);

  util::Counter* wal_appends_ = nullptr;
  util::Counter* wal_bytes_ = nullptr;
  util::Counter* wal_syncs_ = nullptr;
  util::Histogram* snapshot_write_s_ = nullptr;
  util::Gauge* snapshot_bytes_ = nullptr;
  util::Counter* recovery_replayed_records_ = nullptr;
  util::Counter* recovery_snapshots_skipped_ = nullptr;

  storage::Env* env_ = nullptr;
  std::string dir_;
  std::size_t sync_every_ = 1;
  std::unique_ptr<storage::WalWriter> wal_;
  std::uint64_t last_seq_ = 0;
  std::size_t appends_since_sync_ = 0;
};

}  // namespace fast::core
