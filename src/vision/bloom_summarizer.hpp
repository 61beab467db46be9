// The FE+SM stage of the paper's pipeline: DoG interest points + PCA-SIFT
// descriptors (FE) folded into a per-image Bloom membership summary (SM),
// stored sparsely at ~40 B/image. Stateless with respect to the corpus
// (const summarize), so the batch execution path can fan it across a
// thread pool before any index lock is taken.
#pragma once

#include <cstdint>

#include "hash/sparse_signature.hpp"
#include "img/image.hpp"
#include "vision/dog_detector.hpp"
#include "vision/pca.hpp"
#include "vision/pca_sift.hpp"

namespace fast::vision {

struct BloomSummarizerConfig {
  DogConfig dog;
  PcaSiftConfig pca_sift;
  std::size_t max_keypoints = 128;
  std::size_t bloom_bits = 16384;       ///< m
  std::size_t bloom_hashes = 8;         ///< k
  std::size_t quantize_group_dims = 6;  ///< components per quantized group
  float quantize_cell = 2.0f;           ///< cell width in whitened units
  double spatial_cell_px = 32.0;        ///< coarse keypoint-position cell
};

class BloomSummarizer {
 public:
  /// `pca` is the PCA-SIFT eigenspace, trained offline on a corpus sample.
  BloomSummarizer(BloomSummarizerConfig config, PcaModel pca);

  /// Extracts features from `image` and folds them into a sparse summary.
  /// Deterministic and safe to call concurrently.
  hash::SparseSignature summarize(const img::Image& image) const;

 private:
  BloomSummarizerConfig config_;
  PcaModel pca_;
};

}  // namespace fast::vision
