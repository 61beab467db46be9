// End-to-end configuration of the FAST pipeline. Defaults follow the
// paper's §IV-A2 parameters: LSH L = 7, M = 10, omega = 0.85; Bloom k = 8;
// multi-probe over adjacent buckets; two-choice cuckoo storage with
// adjacent-neighborhood windows.
#pragma once

#include <cstdint>

#include "hash/flat_cuckoo_table.hpp"
#include "hash/minhash.hpp"
#include "hash/pstable_lsh.hpp"
#include "sim/cost_model.hpp"
#include "vision/dog_detector.hpp"
#include "vision/pca_sift.hpp"

namespace fast::core {

/// LSM-style tiering of the index (DESIGN.md §3f). When enabled, inserts
/// land in small per-lane mutable memtables that are sealed into immutable
/// read-only segments once they reach `seal_threshold` entries; a
/// background thread merges segment runs under a size-tiered policy.
/// Queries fan across memtable + segments and merge by distance, honoring
/// tombstones, so results are identical to a single flat index holding the
/// same live set.
struct TierConfig {
  bool enabled = false;
  /// Memtable entries (signatures + tombstones) that trigger a seal.
  std::size_t seal_threshold = 4096;
  /// Independent memtable lanes; ids are hash-partitioned across lanes so
  /// concurrent writers contend only 1/lanes of the time.
  std::size_t lanes = 4;
  /// Adjacent segments merged per compaction run.
  std::size_t compact_fanin = 4;
  /// Per-lane segment count that makes the lane eligible for compaction.
  std::size_t compact_trigger = 8;
  /// Run seal finalization + compaction on a background thread. Tests and
  /// crash-matrix workloads set false to make merges deterministic and
  /// inline (compaction runs at seal time on the calling thread).
  bool background = true;
};

struct FastConfig {
  // FE: DoG detection + PCA-SIFT description.
  vision::DogConfig dog;
  vision::PcaSiftConfig pca_sift;
  std::size_t max_keypoints = 128;

  // SM: per-image Bloom summary. Descriptors are whitened (divided by the
  // per-component PCA standard deviation), split into groups of
  // `quantize_group_dims` components, and each group's coarsely quantized
  // cell tuple is one Bloom insertion. Near-duplicate descriptors agree on
  // most groups, so similar images share most of their set bits, while a
  // single jittered component only perturbs its own group — the robustness
  // whole-descriptor quantization lacks.
  std::size_t bloom_bits = 16384;  ///< m
  std::size_t bloom_hashes = 8;   ///< k = 8 (paper §IV-A2)
  std::size_t quantize_group_dims = 6;  ///< components per quantized group
  float quantize_cell = 2.0f;     ///< cell width in whitened units
  double spatial_cell_px = 32.0;  ///< coarse keypoint-position cell

  // SA: locality hashing over the Bloom summaries. Two interchangeable
  // backends feed the same cuckoo storage:
  //  - kPStable: the paper's p-stable (L2) LSH over the dense bit-vector
  //    (L = 7, M = 10, omega = 0.85 per §IV-A2);
  //  - kMinHash: MinHash banding over the sparse set-bit list, whose
  //    collision probability equals the signatures' Jaccard similarity —
  //    the default here because the synthetic feature pipeline yields
  //    lower bit overlap than the paper's real-image features (DESIGN.md §2).
  enum class SaBackend { kPStable, kMinHash };
  SaBackend sa_backend = SaBackend::kMinHash;
  hash::LshConfig lsh{
      .dim = 16384, .tables = 7, .hashes_per_table = 10, .omega = 0.85,
      .seed = 0x15b};
  hash::MinHashConfig minhash{.bands = 48, .band_size = 2, .seed = 0x31a};
  bool minhash_multiprobe = false;  ///< probe runner-up bands (recall boost)
  int probe_depth = 1;  ///< adjacent-bucket probing depth (0 disables)
  /// Input vectors are scaled by this factor before hashing so that the
  /// typical nearest-neighbor distance lands well inside one omega cell
  /// (the paper's R-tuning step; see FastIndex::calibrate_scale).
  double lsh_input_scale = 1.0;
  /// Scaled NN distance the calibration targets, as a fraction of omega.
  double calibrate_target = 0.25;

  // CHS: group storage behind the aggregator's bucket keys. Two runtime-
  // selectable backends:
  //  - kFlatCuckoo: the paper's flat-structured cuckoo addressing — fixed
  //    2W-probe lookups, proactive doubling at 80% load (amortized O(1));
  //  - kChained: conventional vertical addressing (bucket chains), the
  //    baseline of §III-C3 kept selectable for ablations.
  // The values enter the config fingerprint, so they are fixed; 2 is
  // retired (it named a removed fingerprint-compressed flat table).
  enum class ChsBackend { kFlatCuckoo = 0, kChained = 1 };
  ChsBackend chs_backend = ChsBackend::kFlatCuckoo;
  hash::FlatCuckooConfig cuckoo{
      .capacity = 256, .window = 4, .max_kicks = 500, .seed = 0xfa57};
  /// Chain heads per table for the kChained baseline (fixed; chains absorb
  /// overflow, which is exactly the unbounded-probe behavior under study).
  std::size_t chained_buckets = 4096;

  /// Tiered (memtable + sealed segments) layout; off = one flat mutable
  /// index. Thresholds/lanes are operational knobs and do not change how
  /// persisted state is interpreted, so only `enabled` enters the config
  /// fingerprint (a tiered directory is not openable as flat or vice versa
  /// — the on-disk manifest shapes differ).
  TierConfig tier;

  /// Bloofi-style shard routing in ShardedFastIndex (DESIGN.md §3h): log2
  /// of the per-shard counting-bloom summary over resident (table,
  /// home-key) fingerprints. Queries skip shards whose summary excludes
  /// every probed key. 0 disables routing (scatter to all shards — the
  /// ablation baseline). Operational knob: summaries are rebuilt from
  /// recovered state, never persisted, so it stays out of the config
  /// fingerprint.
  std::size_t shard_routing_bits = 0;

  // Simulated platform for the cost accounting.
  sim::CostModel cost;

  /// Per-image feature-extraction cost on the paper's hardware (DoG +
  /// PCA-SIFT on a ~1 MB JPEG). Used by the simulated-latency experiments;
  /// the real extraction also runs natively on the synthetic images.
  double feature_extract_s = 0.040;

  FastConfig() {
    dog.max_keypoints = max_keypoints;
    // Keep LSH input dimensionality in lockstep with the Bloom width.
    lsh.dim = bloom_bits;
  }
};

}  // namespace fast::core
