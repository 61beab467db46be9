#include "core/durability.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

#include "core/config.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fast::core {

namespace {

void fp_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;  // FNV-1a 64-bit prime
  }
}

void fp_mix_f64(std::uint64_t& h, double v) {
  fp_mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t config_fingerprint(const FastConfig& c) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit offset basis
  fp_mix(h, c.bloom_bits);
  fp_mix(h, c.bloom_hashes);
  fp_mix(h, c.quantize_group_dims);
  fp_mix_f64(h, static_cast<double>(c.quantize_cell));
  fp_mix_f64(h, c.spatial_cell_px);
  fp_mix(h, static_cast<std::uint64_t>(c.sa_backend));
  fp_mix(h, c.lsh.dim);
  fp_mix(h, c.lsh.tables);
  fp_mix(h, c.lsh.hashes_per_table);
  fp_mix_f64(h, c.lsh.omega);
  fp_mix(h, c.lsh.seed);
  fp_mix(h, c.minhash.bands);
  fp_mix(h, c.minhash.band_size);
  fp_mix(h, c.minhash.seed);
  fp_mix(h, c.minhash_multiprobe ? 1 : 0);
  fp_mix(h, static_cast<std::uint64_t>(c.probe_depth));
  fp_mix(h, static_cast<std::uint64_t>(c.chs_backend));
  fp_mix(h, c.cuckoo.capacity);
  fp_mix(h, c.cuckoo.window);
  fp_mix(h, c.cuckoo.max_kicks);
  fp_mix(h, c.cuckoo.seed);
  fp_mix(h, c.chained_buckets);
  // Tiered directories carry a manifest + per-segment sections that a flat
  // open cannot interpret (and vice versa), so the layout flavor is part of
  // the fingerprint. Mixed only when enabled to keep every pre-tier
  // fingerprint (golden fixtures, existing directories) unchanged.
  if (c.tier.enabled) fp_mix(h, 0x7157);
  return h;
}

// --- DurableLog -----------------------------------------------------------

DurableLog::DurableLog(util::MetricsRegistry& r)
    : wal_appends_(&r.counter("wal.appends")),
      wal_bytes_(&r.counter("wal.bytes")),
      wal_syncs_(&r.counter("wal.syncs")),
      snapshot_write_s_(&r.latency_histogram("snapshot.write_s")),
      snapshot_bytes_(&r.gauge("snapshot.bytes")),
      recovery_replayed_records_(&r.counter("recovery.replayed_records")),
      recovery_snapshots_skipped_(&r.counter("recovery.snapshots_skipped")) {}

void DurableLog::append(std::uint8_t type, std::uint64_t id,
                        std::span<const std::uint8_t> payload) {
  const std::uint64_t seq = wal_->next_seq();
  storage::Status s = wal_->append(type, id, payload);
  if (s.ok() && ++appends_since_sync_ >= sync_every_) {
    s = wal_->sync();
    if (s.ok()) {
      appends_since_sync_ = 0;
      wal_syncs_->add();
    }
  }
  if (!s.ok()) throw storage::IoError(std::move(s));
  wal_appends_->add();
  // Frame overhead (crc + len) plus the fixed body prefix (seq, type, id).
  wal_bytes_->add(4 + 4 + 8 + 1 + 8 + payload.size());
  last_seq_ = seq;
}

storage::Status DurableLog::sync() {
  if (!durable() || appends_since_sync_ == 0) return storage::Status{};
  storage::Status s = wal_->sync();
  if (s.ok()) {
    appends_since_sync_ = 0;
    wal_syncs_->add();
  }
  return s;
}

storage::Status DurableLog::publish(const storage::SnapshotFile& snapshot,
                                    util::TraceSpan& span,
                                    const util::WallTimer& timer) {
  auto published = storage::write_snapshot(*env_, dir_, snapshot);
  if (!published.ok()) return published.status();

  std::size_t image_bytes = 32;  // header
  for (const auto& section : snapshot.sections) {
    image_bytes += 12 + section.payload.size();
  }
  span.attr("bytes", static_cast<double>(image_bytes + 12));
  snapshot_bytes_->set(static_cast<double>(image_bytes + 12));
  snapshot_write_s_->observe(timer.elapsed_seconds());

  storage::Status rotated =
      storage::rotate_wal_and_retire(*env_, dir_, snapshot.last_seq, &wal_);
  if (!rotated.ok()) return rotated;
  appends_since_sync_ = 0;
  return storage::Status{};
}

storage::Status DurableLog::not_durable() {
  return storage::Status::error(storage::StatusCode::kIoError,
                                "save_snapshot on a non-durable index");
}

// --- Recovery driver ------------------------------------------------------

storage::Status recover(const FastConfig& config, const DurabilityOptions& opts,
                        const RecoveryHooks& hooks, RecoveryStats* stats_out) {
  util::TraceSpan span("recovery.open");
  RecoveryStats stats;
  storage::Env& env = opts.env != nullptr ? *opts.env : storage::Env::posix();
  storage::Status s = env.make_dirs(opts.dir);
  if (!s.ok()) return s;
  auto names = env.list_dir(opts.dir);
  if (!names.ok()) return names.status();

  std::vector<std::uint64_t> snapshot_seqs;
  std::vector<std::uint64_t> wal_seqs;
  for (const std::string& name : names.value()) {
    std::uint64_t seq = 0;
    if (storage::parse_snapshot_file_name(name, &seq)) {
      snapshot_seqs.push_back(seq);
    } else if (storage::parse_wal_segment_name(name, &seq)) {
      wal_seqs.push_back(seq);
    }
    // Anything else (.tmp images from interrupted writes, stray files) is
    // ignored; a crashed snapshot write must not affect recovery.
  }
  std::sort(snapshot_seqs.rbegin(), snapshot_seqs.rend());  // newest first
  std::sort(wal_seqs.begin(), wal_seqs.end());

  const std::uint64_t want_fingerprint = config_fingerprint(config);
  DurableLog* log = nullptr;
  for (const std::uint64_t seq : snapshot_seqs) {
    const std::string path = opts.dir + "/" + storage::snapshot_file_name(seq);
    auto snapshot = storage::read_snapshot(env, path);
    if (!snapshot.ok()) {
      switch (snapshot.status().code()) {
        case storage::StatusCode::kCorrupt:
        case storage::StatusCode::kBadMagic:
          // Damaged image: fall back to the previous snapshot (its WAL
          // segments were only deleted after THIS one was fully published,
          // so an older snapshot plus surviving segments is still exact).
          ++stats.snapshots_skipped;
          continue;
        default:
          return snapshot.status();  // kBadVersion / filesystem trouble
      }
    }
    if (snapshot.value().config_fingerprint != want_fingerprint) {
      return storage::Status::error(
          storage::StatusCode::kConfigMismatch,
          "snapshot " + path +
              " was written under a different pipeline geometry");
    }
    log = hooks.restore(&snapshot.value());
    if (log == nullptr) {
      ++stats.snapshots_skipped;
      continue;
    }
    log->last_seq_ = snapshot.value().last_seq;
    stats.loaded_snapshot = true;
    stats.snapshot_seq = snapshot.value().last_seq;
    break;
  }
  if (log == nullptr) log = hooks.restore(nullptr);

  for (const std::uint64_t seq : wal_seqs) {
    const std::string path = opts.dir + "/" + storage::wal_segment_name(seq);
    auto segment = storage::read_wal_segment(env, path);
    if (!segment.ok()) return segment.status();
    ++stats.segments_scanned;
    if (segment.value().torn) stats.wal_torn = true;
    for (const storage::WalRecord& record : segment.value().records) {
      if (record.seq <= log->last_seq_) continue;  // inside the snapshot
      if (record.seq != log->last_seq_ + 1) {
        return storage::Status::error(
            storage::StatusCode::kCorrupt,
            "WAL gap: expected seq " + std::to_string(log->last_seq_ + 1) +
                ", segment " + path + " continues at " +
                std::to_string(record.seq));
      }
      switch (record.type) {
        case storage::kWalRecordInsert: {
          try {
            const hash::SparseSignature sig =
                hash::SparseSignature::decode(record.payload);
            if (sig.bit_count() != config.bloom_bits) {
              return storage::Status::error(
                  storage::StatusCode::kCorrupt,
                  "WAL insert payload has the wrong signature width");
            }
            hooks.apply(record.id, &sig);
          } catch (const std::runtime_error& e) {
            return storage::Status::error(
                storage::StatusCode::kCorrupt,
                std::string("undecodable WAL insert payload: ") + e.what());
          }
          break;
        }
        case storage::kWalRecordErase:
          hooks.apply(record.id, nullptr);
          break;
        default:
          return storage::Status::error(
              storage::StatusCode::kCorrupt,
              "unknown WAL record type " + std::to_string(record.type));
      }
      log->last_seq_ = record.seq;
      ++stats.replayed_records;
    }
  }
  log->recovery_replayed_records_->add(stats.replayed_records);
  log->recovery_snapshots_skipped_->add(stats.snapshots_skipped);
  span.attr("replayed_records", static_cast<double>(stats.replayed_records));
  span.attr("snapshots_skipped", static_cast<double>(stats.snapshots_skipped));
  span.attr("segments_scanned", static_cast<double>(stats.segments_scanned));

  auto writer = storage::WalWriter::create(env, opts.dir, log->last_seq_ + 1);
  if (!writer.ok()) return writer.status();
  log->env_ = &env;
  log->dir_ = opts.dir;
  log->sync_every_ = std::max<std::size_t>(opts.wal_sync_every, 1);
  log->wal_ = std::move(writer).value();
  if (stats_out != nullptr) *stats_out = stats;
  return storage::Status{};
}

}  // namespace fast::core
