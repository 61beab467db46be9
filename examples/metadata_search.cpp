// Generality of the FAST methodology (the paper's §II-A and Table I):
// the same summarize -> locality-hash -> flat-cuckoo pipeline applied to a
// completely different data type — file-system metadata records, the
// workload of Spyglass/SmartStore.
//
// Each file's metadata is embedded as a multi-dimensional vector, the
// vector's quantized field groups are Bloom-summarized, MinHash bands over
// the summary key a flat cuckoo table, and "find files correlated with
// this one" becomes the same O(1) probe-and-rank the image use case runs.
//
// Run: ./build/examples/metadata_search [num_files]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "hash/bloom_filter.hpp"
#include "hash/flat_cuckoo_table.hpp"
#include "hash/minhash.hpp"
#include "hash/sparse_signature.hpp"
#include "util/table.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload/metadata.hpp"

namespace {

using namespace fast;

// SM for metadata: quantize overlapping field groups into Bloom items.
hash::SparseSignature summarize_meta(const std::vector<float>& vec) {
  hash::BloomFilter bloom(4096, 8);
  constexpr std::size_t kGroup = 3;
  std::vector<std::int16_t> cells(1 + kGroup);
  for (std::size_t start = 0; start + kGroup <= vec.size(); ++start) {
    cells[0] = static_cast<std::int16_t>(start);
    for (std::size_t i = 0; i < kGroup; ++i) {
      cells[1 + i] = static_cast<std::int16_t>(
          std::lround(vec[start + i] / 0.75f));
    }
    bloom.insert(cells.data(), cells.size() * sizeof(cells[0]));
  }
  return hash::SparseSignature(bloom);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t num_files =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 4000;
  constexpr std::size_t kClusters = 24;

  // A synthetic namespace with correlated project directories.
  const auto files = workload::generate_namespace(num_files, kClusters);
  std::printf("namespace: %zu files in %zu correlated clusters\n",
              files.size(), kClusters);

  // SM + SA + CHS, exactly as in the image pipeline.
  util::WallTimer build;
  std::vector<hash::SparseSignature> signatures;
  signatures.reserve(files.size());
  for (const auto& f : files) {
    signatures.push_back(summarize_meta(workload::metadata_vector(f)));
  }
  hash::MinHasher hasher(hash::MinHashConfig{.bands = 32, .band_size = 2,
                                             .seed = 0x3e7a});
  std::vector<hash::FlatCuckooTable> tables;
  std::vector<std::vector<std::uint64_t>> groups;
  for (std::size_t b = 0; b < hasher.config().bands; ++b) {
    hash::FlatCuckooConfig cfg;
    cfg.capacity = 4 * num_files;
    cfg.seed = 0xfeed + b;
    tables.emplace_back(cfg);
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto mh = hasher.minhashes(signatures[i]);
    for (std::size_t b = 0; b < tables.size(); ++b) {
      const std::uint64_t key = hasher.band_key(b, mh);
      if (const auto group = tables[b].find(key)) {
        groups[*group].push_back(i);
      } else {
        groups.emplace_back(std::vector<std::uint64_t>{i});
        tables[b].insert(key, groups.size() - 1);
      }
    }
  }
  std::printf("indexed in %s (%zu correlation groups)\n",
              util::fmt_duration(build.elapsed_seconds()).c_str(),
              groups.size());

  // Query: "files correlated with file X" for a handful of probes. A probe
  // counts as correct when most of its top neighbors come from the same
  // generator cluster (recomputable because cluster assignment is
  // deterministic in the generator's seeding).
  util::Table table({"probe file", "extension", "candidates",
                     "top-5 same-cluster", "query time"});
  util::Rng rng(0x9997);
  for (int probe = 0; probe < 6; ++probe) {
    const std::size_t qi = rng.uniform_u64(files.size());
    util::WallTimer qt;
    const auto mh = hasher.minhashes(signatures[qi]);
    std::unordered_set<std::uint64_t> candidates;
    for (std::size_t b = 0; b < tables.size(); ++b) {
      if (const auto group = tables[b].find(hasher.band_key(b, mh))) {
        for (std::uint64_t id : groups[*group]) candidates.insert(id);
      }
    }
    std::vector<std::pair<double, std::uint64_t>> ranked;
    const hash::SparseSignature::DenseQuery dense(signatures[qi]);
    for (std::uint64_t id : candidates) {
      if (id == qi) continue;
      ranked.emplace_back(dense.jaccard(signatures[id]), id);
    }
    std::sort(ranked.rbegin(), ranked.rend());
    const double q_s = qt.elapsed_seconds();

    // "Same cluster" proxy: files sharing extension + owner (the cluster
    // traits the generator correlates).
    std::size_t same = 0;
    const std::size_t top = std::min<std::size_t>(5, ranked.size());
    for (std::size_t r = 0; r < top; ++r) {
      const auto& peer = files[ranked[r].second];
      same += peer.extension == files[qi].extension &&
              peer.owner == files[qi].owner;
    }
    table.add_row({files[qi].name, files[qi].extension,
                   std::to_string(candidates.size()),
                   std::to_string(same) + "/" + std::to_string(top),
                   util::fmt_duration(q_s)});
  }
  table.print("correlated-file queries over metadata (Table I generality)");
  return 0;
}
