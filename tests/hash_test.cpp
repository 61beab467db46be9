#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "hash/aggregators.hpp"
#include "hash/bloom_filter.hpp"
#include "hash/counting_bloom.hpp"
#include "hash/cuckoo_table.hpp"
#include "hash/flat_cuckoo_table.hpp"
#include "hash/hashes.hpp"
#include "hash/lsh_table_chained.hpp"
#include "hash/minhash.hpp"
#include "hash/multi_probe.hpp"
#include "hash/pstable_lsh.hpp"
#include "hash/sparse_signature.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace fast::hash {
namespace {

// ---------- hash primitives ----------

TEST(Hashes, Murmur3Deterministic) {
  const Hash128 a = murmur3_128("hello world");
  const Hash128 b = murmur3_128("hello world");
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
}

TEST(Hashes, Murmur3SeedChangesOutput) {
  const Hash128 a = murmur3_128("hello", 1);
  const Hash128 b = murmur3_128("hello", 2);
  EXPECT_NE(a.lo, b.lo);
}

TEST(Hashes, Murmur3SensitiveToEveryByte) {
  std::string s(40, 'a');
  const Hash128 base = murmur3_128(s);
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::string mutated = s;
    mutated[i] = 'b';
    EXPECT_NE(murmur3_128(mutated).lo, base.lo) << "byte " << i;
  }
}

TEST(Hashes, Murmur3HandlesAllTailLengths) {
  // Exercise every switch-case tail (0..15 bytes beyond block boundary).
  std::set<std::uint64_t> seen;
  for (std::size_t len = 0; len <= 32; ++len) {
    std::string s(len, 'x');
    seen.insert(murmur3_128(s).lo);
  }
  EXPECT_EQ(seen.size(), 33u);  // all distinct
}

TEST(Hashes, Fnv1aKnownValue) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(fnv1a_64("", 0), 0xcbf29ce484222325ULL);
}

TEST(Hashes, Mix64Bijective) {
  // Distinct inputs -> distinct outputs across a decent sample.
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 10000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 10000u);
}

TEST(Hashes, DerivedHashLinear) {
  const Hash128 h{10, 3};
  EXPECT_EQ(derived_hash(h, 0), 10u);
  EXPECT_EQ(derived_hash(h, 4), 22u);
}

// ---------- BloomFilter ----------

TEST(Bloom, NoFalseNegatives) {
  BloomFilter bf(1024, 4);
  for (std::uint64_t i = 0; i < 50; ++i) bf.insert_u64(i);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(bf.maybe_contains_u64(i));
  }
}

TEST(Bloom, AbsentMostlyRejected) {
  BloomFilter bf(4096, 8);
  for (std::uint64_t i = 0; i < 100; ++i) bf.insert_u64(i);
  int fp = 0;
  for (std::uint64_t i = 1000; i < 2000; ++i) {
    if (bf.maybe_contains_u64(i)) ++fp;
  }
  EXPECT_LT(fp, 20);
}

TEST(Bloom, EmptyRejectsEverything) {
  BloomFilter bf(256, 4);
  EXPECT_FALSE(bf.maybe_contains_u64(1));
  EXPECT_EQ(bf.set_bit_count(), 0u);
}

TEST(Bloom, SetBitsBounded) {
  BloomFilter bf(1024, 4);
  bf.insert_u64(42);
  EXPECT_LE(bf.set_bit_count(), 4u);
  EXPECT_GE(bf.set_bit_count(), 1u);
}

TEST(Bloom, MergeIsUnion) {
  BloomFilter a(512, 4), b(512, 4);
  a.insert_u64(1);
  b.insert_u64(2);
  a.merge(b);
  EXPECT_TRUE(a.maybe_contains_u64(1));
  EXPECT_TRUE(a.maybe_contains_u64(2));
}

TEST(Bloom, ClearResets) {
  BloomFilter bf(512, 4);
  bf.insert_u64(7);
  bf.clear();
  EXPECT_FALSE(bf.maybe_contains_u64(7));
  EXPECT_EQ(bf.inserted_count(), 0u);
}

TEST(Bloom, SimilarSetsShareBits) {
  // Two filters over sets sharing 80% of elements have small Hamming
  // distance relative to disjoint sets — the property SM relies on.
  BloomFilter a(4096, 8), b(4096, 8), c(4096, 8);
  for (std::uint64_t i = 0; i < 100; ++i) a.insert_u64(i);
  for (std::uint64_t i = 20; i < 120; ++i) b.insert_u64(i);      // 80% shared
  for (std::uint64_t i = 1000; i < 1100; ++i) c.insert_u64(i);   // disjoint
  EXPECT_LT(BloomFilter::hamming(a, b), BloomFilter::hamming(a, c));
}

TEST(Bloom, FloatVectorMatchesBits) {
  BloomFilter bf(256, 2);
  bf.insert_u64(5);
  const auto v = bf.to_float_vector();
  ASSERT_EQ(v.size(), 256u);
  std::size_t ones = 0;
  for (float x : v) {
    EXPECT_TRUE(x == 0.0f || x == 1.0f);
    ones += x == 1.0f;
  }
  EXPECT_EQ(ones, bf.set_bit_count());
}

// Property sweep: the empirical false-positive rate tracks the analytic
// (1 - e^{-kn/m})^k model across configurations.
struct BloomParams {
  std::size_t bits;
  std::size_t k;
  std::size_t n;
};

class BloomFprTest : public ::testing::TestWithParam<BloomParams> {};

TEST_P(BloomFprTest, EmpiricalFprMatchesTheory) {
  const auto [bits, k, n] = GetParam();
  BloomFilter bf(bits, k);
  for (std::uint64_t i = 0; i < n; ++i) bf.insert_u64(i);
  std::size_t fp = 0;
  constexpr std::size_t kProbes = 20000;
  for (std::uint64_t i = 0; i < kProbes; ++i) {
    if (bf.maybe_contains_u64(1000000 + i)) ++fp;
  }
  const double empirical = static_cast<double>(fp) / kProbes;
  const double theory = bf.false_positive_rate();
  EXPECT_NEAR(empirical, theory, std::max(0.02, theory * 0.5));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BloomFprTest,
    ::testing::Values(BloomParams{1024, 4, 50}, BloomParams{1024, 4, 200},
                      BloomParams{4096, 8, 200}, BloomParams{4096, 2, 400},
                      BloomParams{16384, 8, 1000},
                      BloomParams{512, 6, 100}));

// ---------- CountingBloomFilter ----------

TEST(CountingBloom, InsertThenRemove) {
  CountingBloomFilter cbf(2048, 4);
  cbf.insert_u64(9);
  EXPECT_TRUE(cbf.maybe_contains_u64(9));
  cbf.remove_u64(9);
  EXPECT_FALSE(cbf.maybe_contains_u64(9));
}

TEST(CountingBloom, RemoveKeepsOtherKeys) {
  CountingBloomFilter cbf(4096, 4);
  for (std::uint64_t i = 0; i < 50; ++i) cbf.insert_u64(i);
  cbf.remove_u64(25);
  for (std::uint64_t i = 0; i < 50; ++i) {
    if (i == 25) continue;
    EXPECT_TRUE(cbf.maybe_contains_u64(i)) << i;
  }
}

TEST(CountingBloom, DuplicateInsertNeedsTwoRemoves) {
  CountingBloomFilter cbf(2048, 4);
  cbf.insert_u64(3);
  cbf.insert_u64(3);
  cbf.remove_u64(3);
  EXPECT_TRUE(cbf.maybe_contains_u64(3));
  cbf.remove_u64(3);
  EXPECT_FALSE(cbf.maybe_contains_u64(3));
}

TEST(CountingBloom, SaturationDetected) {
  CountingBloomFilter cbf(64, 2);
  for (std::uint64_t i = 0; i < 600; ++i) cbf.insert_u64(i);
  EXPECT_GT(cbf.saturation_count(), 0u);
}

// ---------- SparseSignature ----------

TEST(SparseSignature, ExtractsSetBits) {
  BloomFilter bf(256, 3);
  bf.insert_u64(17);
  const SparseSignature sig(bf);
  EXPECT_EQ(sig.popcount(), bf.set_bit_count());
  EXPECT_EQ(sig.bit_count(), 256u);
  const auto v = sig.to_float_vector();
  EXPECT_EQ(v, bf.to_float_vector());
}

TEST(SparseSignature, HammingMatchesDense) {
  util::Rng rng(1);
  BloomFilter a(1024, 4), b(1024, 4);
  for (int i = 0; i < 60; ++i) a.insert_u64(rng.next_u64());
  for (int i = 0; i < 60; ++i) b.insert_u64(rng.next_u64());
  const SparseSignature sa(a), sb(b);
  EXPECT_EQ(SparseSignature::hamming(sa, sb), BloomFilter::hamming(a, b));
}

TEST(SparseSignature, JaccardBounds) {
  BloomFilter a(512, 4), b(512, 4);
  a.insert_u64(1);
  b.insert_u64(1);
  const SparseSignature sa(a), sb(b);
  EXPECT_DOUBLE_EQ(SparseSignature::jaccard(sa, sa), 1.0);
  EXPECT_DOUBLE_EQ(SparseSignature::jaccard(sa, sb), 1.0);  // same bits
}

TEST(SparseSignature, JaccardDisjointIsZero) {
  const SparseSignature a({1, 2, 3}, 64);
  const SparseSignature b({10, 20}, 64);
  EXPECT_EQ(SparseSignature::jaccard(a, b), 0.0);
  EXPECT_EQ(SparseSignature::overlap(a, b), 0u);
  EXPECT_EQ(SparseSignature::hamming(a, b), 5u);
}

TEST(SparseSignature, EmptyPairJaccardIsOne) {
  const SparseSignature a({}, 64), b({}, 64);
  EXPECT_EQ(SparseSignature::jaccard(a, b), 1.0);
}

// The sorted two-list merge the dense-probe kernel replaced, kept as the
// reference the kernel must reproduce exactly.
std::size_t merge_overlap(const SparseSignature& a, const SparseSignature& b) {
  std::size_t n = 0;
  auto ia = a.set_bits().begin();
  auto ib = b.set_bits().begin();
  while (ia != a.set_bits().end() && ib != b.set_bits().end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++n;
      ++ia;
      ++ib;
    }
  }
  return n;
}

double merge_jaccard(const SparseSignature& a, const SparseSignature& b) {
  const std::size_t common = merge_overlap(a, b);
  const std::size_t uni = a.popcount() + b.popcount() - common;
  if (uni == 0) return 1.0;
  return static_cast<double>(common) / static_cast<double>(uni);
}

/// Each of `width` bits set with probability `density`.
SparseSignature random_signature(std::uint32_t width, double density,
                                 util::Rng& rng) {
  std::vector<std::uint32_t> bits;
  for (std::uint32_t b = 0; b < width; ++b) {
    if (rng.bernoulli(density)) bits.push_back(b);
  }
  return SparseSignature(std::move(bits), width);
}

/// Kernel (reused DenseQuery and the static wrappers) against the merge.
void expect_matches_merge(const SparseSignature::DenseQuery& dense,
                          const SparseSignature& q, const SparseSignature& c) {
  const std::size_t common = merge_overlap(q, c);
  EXPECT_EQ(dense.overlap(c), common);
  EXPECT_EQ(dense.hamming(c), q.popcount() + c.popcount() - 2 * common);
  EXPECT_EQ(dense.jaccard(c), merge_jaccard(q, c));
  EXPECT_EQ(SparseSignature::overlap(q, c), common);
  EXPECT_EQ(SparseSignature::overlap(c, q), common);
  EXPECT_EQ(SparseSignature::hamming(q, c),
            q.popcount() + c.popcount() - 2 * common);
  EXPECT_EQ(SparseSignature::jaccard(q, c), merge_jaccard(q, c));
  EXPECT_EQ(SparseSignature::jaccard(c, q), merge_jaccard(c, q));
}

TEST(SparseSignature, DenseQueryMatchesMerge) {
  util::Rng rng(0xd3e5);
  const std::vector<double> densities = {0.0, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0};
  // 100 is not a multiple of 64 (a partial last word); 16384 is the
  // default summary width.
  for (const std::uint32_t width : {1u, 64u, 100u, 1024u, 16384u}) {
    for (const double qd : densities) {
      const SparseSignature q = random_signature(width, qd, rng);
      // One DenseQuery reused across every candidate of this query.
      const SparseSignature::DenseQuery dense(q);
      for (const double cd : densities) {
        for (int rep = 0; rep < 3; ++rep) {
          expect_matches_merge(dense, q, random_signature(width, cd, rng));
        }
      }
      // The edge bits 0 and width-1, alone and together.
      expect_matches_merge(dense, q, SparseSignature({0}, width));
      expect_matches_merge(dense, q, SparseSignature({width - 1}, width));
      if (width > 1) {
        expect_matches_merge(dense, q, SparseSignature({0, width - 1}, width));
      }
    }
  }
}

TEST(SparseSignature, DenseQueryEdgeCases) {
  std::vector<std::uint32_t> all(100);
  for (std::uint32_t b = 0; b < 100; ++b) all[b] = b;
  const SparseSignature empty({}, 100);
  const SparseSignature full(all, 100);

  const SparseSignature::DenseQuery dense_empty(empty);
  expect_matches_merge(dense_empty, empty, empty);
  EXPECT_EQ(dense_empty.jaccard(empty), 1.0);
  expect_matches_merge(dense_empty, empty, full);
  EXPECT_EQ(dense_empty.jaccard(full), 0.0);
  EXPECT_EQ(dense_empty.hamming(full), 100u);

  const SparseSignature::DenseQuery dense_full(full);
  expect_matches_merge(dense_full, full, empty);
  expect_matches_merge(dense_full, full, full);
  EXPECT_EQ(dense_full.overlap(full), 100u);
  EXPECT_EQ(dense_full.jaccard(full), 1.0);

  // A default-constructed (width 0) signature has no words at all.
  const SparseSignature none;
  const SparseSignature::DenseQuery dense_none(none);
  expect_matches_merge(dense_none, none, none);
  expect_matches_merge(dense_none, none, full);

  // A candidate wider than the query: its bits past the query's width are
  // misses, read nowhere.
  util::Rng rng(0x71de);
  for (int rep = 0; rep < 20; ++rep) {
    const SparseSignature narrow = random_signature(100, 0.5, rng);
    const SparseSignature wide = random_signature(16384, 0.5, rng);
    const SparseSignature::DenseQuery dense(narrow);
    expect_matches_merge(dense, narrow, wide);
    expect_matches_merge(dense, narrow,
                         SparseSignature({99, 100, 16383}, 16384));
  }
}

TEST(SparseSignature, StorageBytesTracksPopcount) {
  const SparseSignature small({1}, 1024);
  const SparseSignature big({1, 2, 3, 4, 5, 6, 7, 8}, 1024);
  EXPECT_LT(small.storage_bytes(), big.storage_bytes());
}

// ---------- p-stable LSH ----------

TEST(PStableLsh, DeterministicKeys) {
  LshConfig cfg;
  cfg.dim = 16;
  PStableLsh lsh(cfg);
  std::vector<float> v(16, 0.5f);
  EXPECT_EQ(lsh.all_keys(v), lsh.all_keys(v));
}

TEST(PStableLsh, IdenticalVectorsAlwaysCollide) {
  LshConfig cfg;
  cfg.dim = 8;
  PStableLsh lsh(cfg);
  std::vector<float> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> w = v;
  for (std::size_t t = 0; t < cfg.tables; ++t) {
    EXPECT_EQ(lsh.bucket_coords(t, v), lsh.bucket_coords(t, w));
  }
}

TEST(PStableLsh, CollisionProbabilityDecreasesWithDistance) {
  // Analytic p(c) is monotonically decreasing in c.
  double prev = PStableLsh::collision_probability(0.0, 1.0);
  EXPECT_DOUBLE_EQ(prev, 1.0);
  for (double c : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    const double p = PStableLsh::collision_probability(c, 1.0);
    EXPECT_LT(p, prev);
    EXPECT_GE(p, 0.0);
    prev = p;
  }
}

TEST(PStableLsh, EmpiricalCollisionMatchesTheory) {
  LshConfig cfg;
  cfg.dim = 32;
  cfg.tables = 1;
  cfg.hashes_per_table = 400;  // 400 independent elementary hashes
  cfg.omega = 1.0;
  PStableLsh lsh(cfg);
  util::Rng rng(5);
  std::vector<float> v(32);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  for (double dist : {0.25, 0.5, 1.0}) {
    // w = v + offset of norm `dist` along a random direction.
    std::vector<float> dir(32);
    for (auto& x : dir) x = static_cast<float>(rng.gaussian());
    double n = 0;
    for (float x : dir) n += x * x;
    n = std::sqrt(n);
    std::vector<float> w = v;
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] += static_cast<float>(dir[i] / n * dist);
    }
    std::size_t collisions = 0;
    for (std::size_t j = 0; j < cfg.hashes_per_table; ++j) {
      if (lsh.hash_one(0, j, v) == lsh.hash_one(0, j, w)) ++collisions;
    }
    const double empirical =
        static_cast<double>(collisions) / cfg.hashes_per_table;
    const double theory = PStableLsh::collision_probability(dist, cfg.omega);
    EXPECT_NEAR(empirical, theory, 0.08) << "dist " << dist;
  }
}

TEST(PStableLsh, BucketKeySaltsByTable) {
  LshConfig cfg;
  cfg.dim = 4;
  PStableLsh lsh(cfg);
  const BucketCoords coords{1, 2, 3};
  EXPECT_NE(lsh.bucket_key(0, coords), lsh.bucket_key(1, coords));
}

// ---------- sparse-gather projection parity ----------

std::vector<std::uint32_t> random_sorted_bits(std::size_t dim, std::size_t nnz,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::set<std::uint32_t> bits;
  while (bits.size() < nnz) {
    bits.insert(static_cast<std::uint32_t>(rng.uniform_u64(dim)));
  }
  return {bits.begin(), bits.end()};
}

// The sparse kernel must reproduce the dense projection bit for bit:
// identical coordinates and identical bucket keys, across dims, seeds,
// scales, and sparsity levels from empty through dense-ish (half the bits).
TEST(PStableLshSparse, BitExactParityWithDensePath) {
  SparseProjectionScratch scratch;
  for (const std::size_t dim : {std::size_t{256}, std::size_t{4096},
                                std::size_t{16384}}) {
    for (const std::uint64_t seed : {std::uint64_t{0x15b},
                                     std::uint64_t{7}}) {
      LshConfig cfg;
      cfg.dim = dim;
      cfg.seed = seed;
      const PStableLsh lsh(cfg);
      const std::size_t m = cfg.hashes_per_table;
      for (const std::size_t nnz :
           {std::size_t{0}, std::size_t{1}, std::size_t{64}, dim / 2}) {
        for (const float scale : {1.0f, 0.0371f}) {
          const auto bits = random_sorted_bits(dim, nnz, seed ^ nnz);
          // Dense reference input, exactly as the pre-sparse aggregator
          // built it: densify to {0,1} floats, then scale.
          std::vector<float> dense(dim, 0.0f);
          for (const std::uint32_t b : bits) dense[b] = 1.0f;
          for (float& x : dense) x *= scale;

          const std::span<const std::int32_t> coords =
              lsh.bucket_coords_sparse(bits, scale, scratch);
          ASSERT_EQ(coords.size(), cfg.tables * m);
          const std::span<const std::uint64_t> keys =
              lsh.all_keys_sparse(bits, scale, scratch);
          const std::vector<std::uint64_t> dense_keys = lsh.all_keys(dense);
          for (std::size_t t = 0; t < cfg.tables; ++t) {
            const BucketCoords expected = lsh.bucket_coords(t, dense);
            for (std::size_t j = 0; j < m; ++j) {
              ASSERT_EQ(coords[t * m + j], expected[j])
                  << "dim " << dim << " seed " << seed << " nnz " << nnz
                  << " scale " << scale << " table " << t << " hash " << j;
            }
            ASSERT_EQ(lsh.bucket_key(t, coords.subspan(t * m, m)),
                      lsh.bucket_key(t, expected));
            ASSERT_EQ(keys[t], dense_keys[t]);
          }
        }
      }
    }
  }
}

TEST(PStableLshSparse, EmptySignatureUsesOffsetsOnly) {
  LshConfig cfg;
  cfg.dim = 256;
  const PStableLsh lsh(cfg);
  SparseProjectionScratch scratch;
  const std::vector<float> zeros(cfg.dim, 0.0f);
  const std::span<const std::uint64_t> keys =
      lsh.all_keys_sparse({}, 1.0f, scratch);
  const std::vector<std::uint64_t> dense_keys = lsh.all_keys(zeros);
  ASSERT_EQ(keys.size(), dense_keys.size());
  for (std::size_t t = 0; t < dense_keys.size(); ++t) {
    EXPECT_EQ(keys[t], dense_keys[t]);
  }
}

// Adapter-level parity: PStableAggregator::keys (home + multi-probe keys)
// must equal a dense reference computed the way the pre-sparse adapter did
// (densify, scale as float, project per table).
TEST(PStableAggregator, KeysAndProbesMatchDenseReference) {
  LshConfig cfg;
  cfg.dim = 4096;
  const double input_scale = 0.42;
  const int probe_depth = 1;
  const PStableAggregator agg(cfg, probe_depth, input_scale);
  const PStableLsh ref(cfg);
  for (const std::size_t nnz : {std::size_t{0}, std::size_t{307}}) {
    const SparseSignature sig(random_sorted_bits(cfg.dim, nnz, 0x99 + nnz),
                              static_cast<std::uint32_t>(cfg.dim));
    std::vector<std::vector<std::uint64_t>> probes;
    const std::vector<std::uint64_t> keys = agg.keys(sig, &probes);

    std::vector<float> dense = sig.to_float_vector();
    for (float& x : dense) x *= static_cast<float>(input_scale);
    ASSERT_EQ(keys.size(), cfg.tables);
    ASSERT_EQ(probes.size(), cfg.tables);
    for (std::size_t t = 0; t < cfg.tables; ++t) {
      const BucketCoords home = ref.bucket_coords(t, dense);
      EXPECT_EQ(keys[t], ref.bucket_key(t, home));
      const auto seq = probe_sequence(home, probe_depth);
      ASSERT_EQ(probes[t].size(), seq.size());
      for (std::size_t p = 0; p < seq.size(); ++p) {
        EXPECT_EQ(probes[t][p], ref.bucket_key(t, seq[p]));
      }
    }
  }
}

TEST(PStableLshSparse, ScratchReuseAcrossConfigsIsSafe) {
  // One thread-local scratch serves aggregators of different geometry; a
  // call must fully re-initialize whatever a previous config left behind.
  SparseProjectionScratch scratch;
  LshConfig big;
  big.dim = 4096;
  const PStableLsh big_lsh(big);
  const auto big_bits = random_sorted_bits(big.dim, 128, 3);
  (void)big_lsh.all_keys_sparse(big_bits, 1.0f, scratch);

  LshConfig small;
  small.dim = 256;
  small.tables = 3;
  small.hashes_per_table = 4;
  const PStableLsh small_lsh(small);
  const auto small_bits = random_sorted_bits(small.dim, 32, 4);
  std::vector<float> dense(small.dim, 0.0f);
  for (const std::uint32_t b : small_bits) dense[b] = 1.0f;
  const std::span<const std::uint64_t> keys =
      small_lsh.all_keys_sparse(small_bits, 1.0f, scratch);
  const std::vector<std::uint64_t> dense_keys = small_lsh.all_keys(dense);
  ASSERT_EQ(keys.size(), dense_keys.size());
  for (std::size_t t = 0; t < dense_keys.size(); ++t) {
    EXPECT_EQ(keys[t], dense_keys[t]);
  }
}

// ---------- multi-probe ----------

TEST(MultiProbe, Depth0IsEmpty) {
  EXPECT_TRUE(probe_sequence({1, 2, 3}, 0).empty());
  EXPECT_EQ(probe_count(3, 0), 0u);
}

TEST(MultiProbe, Depth1EnumeratesSingleSteps) {
  const auto probes = probe_sequence({5, 5}, 1);
  EXPECT_EQ(probes.size(), probe_count(2, 1));
  EXPECT_EQ(probes.size(), 4u);
  std::set<BucketCoords> expected{{4, 5}, {6, 5}, {5, 4}, {5, 6}};
  for (const auto& p : probes) {
    EXPECT_TRUE(expected.count(p)) << "unexpected probe";
  }
}

TEST(MultiProbe, Depth2AddsPairPerturbations) {
  const auto probes = probe_sequence({0, 0, 0}, 2);
  EXPECT_EQ(probes.size(), probe_count(3, 2));
  EXPECT_EQ(probes.size(), 2u * 3 + 2u * 3 * 2);
  // All probes distinct.
  std::set<BucketCoords> unique(probes.begin(), probes.end());
  EXPECT_EQ(unique.size(), probes.size());
}

// ---------- chained LSH table ----------

TEST(ChainedTable, InsertAndFindAll) {
  LshTableChained table(16);
  table.insert(7, 100);
  table.insert(7, 101);
  table.insert(8, 200);
  const auto vals = table.find(7);
  EXPECT_EQ(vals.size(), 2u);
  EXPECT_TRUE((vals[0] == 100 && vals[1] == 101) ||
              (vals[0] == 101 && vals[1] == 100));
}

TEST(ChainedTable, ProbeCountGrowsWithChain) {
  LshTableChained table(1);  // everything in one bucket
  for (std::uint64_t i = 0; i < 20; ++i) table.insert(i, i);
  std::size_t probes = 0;
  table.find(0, &probes);
  EXPECT_EQ(probes, 20u);  // walks the whole chain: vertical addressing
  EXPECT_EQ(table.max_chain_length(), 20u);
}

TEST(ChainedTable, MissingKeyEmpty) {
  LshTableChained table(8);
  table.insert(1, 1);
  EXPECT_TRUE(table.find(99).empty());
}

// ---------- standard cuckoo ----------

TEST(Cuckoo, InsertFindErase) {
  CuckooTable t(64);
  EXPECT_TRUE(t.insert(1, 10));
  EXPECT_TRUE(t.insert(2, 20));
  EXPECT_EQ(t.find(1).value(), 10u);
  EXPECT_EQ(t.find(2).value(), 20u);
  EXPECT_FALSE(t.find(3).has_value());
  EXPECT_TRUE(t.erase(1));
  EXPECT_FALSE(t.find(1).has_value());
  EXPECT_FALSE(t.erase(1));
  EXPECT_EQ(t.size(), 1u);
}

TEST(Cuckoo, OverwriteExistingKey) {
  CuckooTable t(64);
  EXPECT_TRUE(t.insert(5, 1));
  EXPECT_TRUE(t.insert(5, 2));
  EXPECT_EQ(t.find(5).value(), 2u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Cuckoo, AllInsertedKeysFindableAtModerateLoad) {
  CuckooTable t(1024);
  // 40% load: standard 2-choice cuckoo handles this comfortably.
  for (std::uint64_t i = 0; i < 409; ++i) {
    ASSERT_TRUE(t.insert(i, i * 2)) << "key " << i;
  }
  for (std::uint64_t i = 0; i < 409; ++i) {
    ASSERT_EQ(t.find(i).value(), i * 2);
  }
}

TEST(Cuckoo, FailureRollsBackExactly) {
  // Fill a tiny table to force an insertion failure, then verify every
  // previously inserted key is still present with its value.
  CuckooTable t(16, 0x5eed1, 32);
  std::vector<std::uint64_t> inserted;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (t.insert(i, i + 1000)) {
      inserted.push_back(i);
    } else {
      break;
    }
  }
  EXPECT_GT(t.stats().failures + (64 - inserted.size()), 0u);
  for (std::uint64_t k : inserted) {
    ASSERT_EQ(t.find(k).value(), k + 1000) << "lost key after failure";
  }
}

TEST(Cuckoo, HighLoadEventuallyFails) {
  CuckooTable t(128, 7, 100);
  std::size_t ok = 0;
  for (std::uint64_t i = 0; i < 128; ++i) ok += t.insert(i, i);
  EXPECT_LT(ok, 128u);  // 100% load is beyond 2-choice cuckoo
  EXPECT_GT(t.stats().failures, 0u);
}

// ---------- flat cuckoo ----------

TEST(FlatCuckoo, InsertFindErase) {
  FlatCuckooConfig cfg;
  cfg.capacity = 64;
  FlatCuckooTable t(cfg);
  EXPECT_TRUE(t.insert(1, 10));
  EXPECT_EQ(t.find(1).value(), 10u);
  EXPECT_TRUE(t.erase(1));
  EXPECT_FALSE(t.contains(1));
}

TEST(FlatCuckoo, OverwriteInPlace) {
  FlatCuckooConfig cfg;
  cfg.capacity = 64;
  FlatCuckooTable t(cfg);
  t.insert(9, 1);
  t.insert(9, 2);
  EXPECT_EQ(t.find(9).value(), 2u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlatCuckoo, SustainsHighLoad) {
  FlatCuckooConfig cfg;
  cfg.capacity = 1024;
  cfg.window = 4;
  FlatCuckooTable t(cfg);
  // 90% load: far beyond standard cuckoo, fine with W=4 neighborhoods.
  std::size_t ok = 0;
  for (std::uint64_t i = 0; i < 921; ++i) ok += t.insert(i, i);
  EXPECT_EQ(ok, 921u);
  for (std::uint64_t i = 0; i < 921; ++i) {
    ASSERT_TRUE(t.contains(i));
  }
}

TEST(FlatCuckoo, ProbesPerLookupIsTwoW) {
  FlatCuckooConfig cfg;
  cfg.window = 4;
  FlatCuckooTable t(cfg);
  EXPECT_EQ(t.probes_per_lookup(), 8u);
}

TEST(FlatCuckoo, FarFewerFailuresThanStandardAtEqualLoad) {
  // The Fig. 6 property, at test scale: load both tables to 85% and
  // compare failure counts.
  constexpr std::size_t kCap = 2048;
  constexpr std::size_t kItems = 1741;  // 85%
  std::size_t std_failures = 0, flat_failures = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    CuckooTable std_table(kCap, seed, 200);
    FlatCuckooConfig cfg;
    cfg.capacity = kCap;
    cfg.seed = seed;
    cfg.max_kicks = 200;
    FlatCuckooTable flat_table(cfg);
    for (std::uint64_t i = 0; i < kItems; ++i) {
      std_failures += !std_table.insert(i, i);
      flat_failures += !flat_table.insert(i, i);
    }
  }
  EXPECT_EQ(flat_failures, 0u);
  EXPECT_GT(std_failures, 0u);
}

TEST(FlatCuckoo, FailureRollsBackExactly) {
  FlatCuckooConfig cfg;
  cfg.capacity = 32;
  cfg.window = 2;
  cfg.max_kicks = 16;
  FlatCuckooTable t(cfg);
  std::vector<std::uint64_t> inserted;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (t.insert(i, i * 3)) inserted.push_back(i);
  }
  for (std::uint64_t k : inserted) {
    ASSERT_EQ(t.find(k).value(), k * 3);
  }
}

// A failed insert must be a perfect no-op: same size, the failed key
// absent, every resident key still mapped to its exact value and still
// erasable, and the failure visible in stats(). Checked at the moment of
// the first failure, not just at the end.
TEST(FlatCuckoo, FailedInsertIsANoOp) {
  FlatCuckooConfig cfg;
  cfg.capacity = 16;
  cfg.window = 1;  // minimal associativity so failures arrive quickly
  cfg.max_kicks = 4;
  FlatCuckooTable t(cfg);

  std::map<std::uint64_t, std::uint64_t> resident;
  std::uint64_t failed_key = 0;
  bool failed = false;
  for (std::uint64_t i = 0; i < 64 && !failed; ++i) {
    const std::uint64_t key = 0x9e3779b9ULL * (i + 1);
    if (t.insert(key, i)) {
      resident[key] = i;
    } else {
      failed = true;
      failed_key = key;
    }
  }
  ASSERT_TRUE(failed) << "table absorbed 64 keys into 16 slots";

  EXPECT_EQ(t.size(), resident.size());
  EXPECT_FALSE(t.contains(failed_key));
  EXPECT_GE(t.stats().failures, 1u);
  for (const auto& [key, value] : resident) {
    const auto found = t.find(key);
    ASSERT_TRUE(found.has_value()) << key;
    EXPECT_EQ(*found, value) << key;
  }
  // The rolled-back table is fully functional: every key erases cleanly.
  for (const auto& [key, value] : resident) {
    EXPECT_TRUE(t.erase(key)) << key;
  }
  EXPECT_EQ(t.size(), 0u);
}

/// Overwrites the little-endian u64 at `at` (the ByteWriter encoding).
void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

TEST(FlatCuckoo, SerializeRoundTrip) {
  FlatCuckooConfig cfg;
  cfg.capacity = 256;
  cfg.window = 4;
  cfg.seed = 0x5eed;
  FlatCuckooTable t(cfg);
  for (std::uint64_t i = 0; i < 180; ++i) {
    ASSERT_TRUE(t.insert(mix64(i), i));
  }
  ASSERT_TRUE(t.erase(mix64(3)));

  util::ByteWriter out;
  t.serialize(out);
  util::ByteReader in(out.data());
  auto back = FlatCuckooTable::deserialize(in, 180);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), t.size());
  for (std::uint64_t i = 0; i < 180; ++i) {
    EXPECT_EQ(back->find(mix64(i)), t.find(mix64(i))) << i;
  }
  // The deserialized table keeps working (kick RNG reseeded): inserts and
  // erases behave identically to the original from here on.
  for (std::uint64_t i = 200; i < 230; ++i) {
    EXPECT_EQ(back->insert(mix64(i), i), t.insert(mix64(i), i)) << i;
  }
  EXPECT_EQ(back->size(), t.size());
}

// Header: capacity @0, window @8, ..., 80 bytes; then 17-byte slots
// (key, value, occupied).
TEST(FlatCuckoo, DeserializeRejectsCorruptBytes) {
  FlatCuckooConfig cfg;
  cfg.capacity = 64;
  FlatCuckooTable t(cfg);
  for (std::uint64_t i = 0; i < 40; ++i) ASSERT_TRUE(t.insert(mix64(i), i));
  util::ByteWriter out;
  t.serialize(out);
  const auto rejects = [](const std::vector<std::uint8_t>& bytes,
                          std::uint64_t value_limit) {
    util::ByteReader in(bytes);
    return !FlatCuckooTable::deserialize(in, value_limit).has_value();
  };

  {  // truncated
    const std::vector<std::uint8_t> bytes(
        out.data().begin(),
        out.data().begin() +
            static_cast<std::ptrdiff_t>(out.data().size() / 2));
    EXPECT_TRUE(rejects(bytes, 40));
  }
  // A window past the stack candidate buffer, a zero window, and one wider
  // than the table would all corrupt the first probe.
  for (const std::uint64_t window :
       {std::uint64_t{0}, std::uint64_t{kMaxCuckooWindow + 1},
        std::uint64_t{1} << 40}) {
    std::vector<std::uint8_t> bytes = out.data();
    put_u64(bytes, 8, window);
    EXPECT_TRUE(rejects(bytes, 40)) << window;
  }
  {
    std::vector<std::uint8_t> bytes = out.data();
    put_u64(bytes, 0, 2);  // capacity below the window
    EXPECT_TRUE(rejects(bytes, 40));
  }
  // Values are group ids: one at or past the caller's limit is rejected.
  EXPECT_TRUE(rejects(out.data(), 39));
  EXPECT_FALSE(rejects(out.data(), 40));
}

TEST(ChainedTable, DeserializeRejectsBadLinksAndValues) {
  LshTableChained t(4, 0x5eed);
  for (std::uint64_t i = 0; i < 6; ++i) t.insert(mix64(i), i);
  util::ByteWriter out;
  t.serialize(out);
  const auto rejects = [](const std::vector<std::uint8_t>& bytes,
                          std::uint64_t value_limit) {
    util::ByteReader in(bytes);
    return !LshTableChained::deserialize(in, value_limit).has_value();
  };
  EXPECT_FALSE(rejects(out.data(), 6));
  EXPECT_TRUE(rejects(out.data(), 5));

  // Header: buckets, nodes, salt, size (32 bytes); 4 heads; then 24-byte
  // nodes (key, value, next). A link to the node itself (or any newer
  // node) would make a chain walk loop forever.
  const std::size_t nodes_at = 32 + 4 * 8;
  for (const std::uint64_t node : {std::uint64_t{0}, std::uint64_t{3}}) {
    std::vector<std::uint8_t> bytes = out.data();
    put_u64(bytes, nodes_at + node * 24 + 16, node);
    EXPECT_TRUE(rejects(bytes, 6)) << node;
  }
}

// ---------- MinHash ----------

TEST(MinHash, DeterministicBands) {
  MinHasher mh(MinHashConfig{});
  const SparseSignature sig({1, 5, 9, 100}, 4096);
  const auto m1 = mh.minhashes(sig);
  const auto m2 = mh.minhashes(sig);
  for (std::size_t b = 0; b < mh.config().bands; ++b) {
    EXPECT_EQ(mh.band_key(b, m1), mh.band_key(b, m2));
  }
}

TEST(MinHash, IdenticalSignaturesShareAllBands) {
  MinHasher mh(MinHashConfig{});
  const SparseSignature a({2, 4, 8, 16, 32}, 1024);
  const SparseSignature b({2, 4, 8, 16, 32}, 1024);
  const auto ma = mh.minhashes(a), mb = mh.minhashes(b);
  for (std::size_t band = 0; band < mh.config().bands; ++band) {
    EXPECT_EQ(mh.band_key(band, ma), mh.band_key(band, mb));
  }
}

TEST(MinHash, CollisionRateTracksJaccard) {
  // Build sets with known Jaccard and verify per-hash minhash agreement.
  MinHashConfig cfg;
  cfg.bands = 256;
  cfg.band_size = 1;  // 256 independent minhashes
  MinHasher mh(cfg);
  util::Rng rng(3);
  for (double target_j : {0.2, 0.5, 0.8}) {
    // |A| = |B| = 300 with shared fraction s: J = s / (2 - s).
    const double s = 2 * target_j / (1 + target_j);
    const auto shared = static_cast<std::uint32_t>(300 * s);
    std::vector<std::uint32_t> a, b;
    for (std::uint32_t i = 0; i < shared; ++i) {
      a.push_back(i);
      b.push_back(i);
    }
    for (std::uint32_t i = shared; i < 300; ++i) {
      a.push_back(10000 + i);
      b.push_back(20000 + i);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    const SparseSignature sa(a, 1 << 16), sb(b, 1 << 16);
    const double j = SparseSignature::jaccard(sa, sb);
    const auto ma = mh.minhashes(sa), mb = mh.minhashes(sb);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < cfg.bands; ++i) {
      agree += ma[i].min == mb[i].min;
    }
    EXPECT_NEAR(static_cast<double>(agree) / cfg.bands, j, 0.09)
        << "target J " << target_j;
  }
}

TEST(MinHash, ProbeKeysDifferFromHomeKey) {
  MinHasher mh(MinHashConfig{.bands = 4, .band_size = 3, .seed = 1});
  const SparseSignature sig({1, 2, 3, 4, 5, 6, 7, 8}, 4096);
  const auto m = mh.minhashes(sig);
  for (std::size_t band = 0; band < 4; ++band) {
    const auto probes = mh.probe_keys(band, m);
    EXPECT_EQ(probes.size(), 3u);
    for (std::uint64_t p : probes) {
      EXPECT_NE(p, mh.band_key(band, m));
    }
  }
}

TEST(MinHash, CollisionProbabilityFormula) {
  EXPECT_NEAR(MinHasher::collision_probability(1.0, 10, 2), 1.0, 1e-12);
  EXPECT_NEAR(MinHasher::collision_probability(0.0, 10, 2), 0.0, 1e-12);
  const double p1 = MinHasher::collision_probability(0.5, 10, 2);
  const double p2 = MinHasher::collision_probability(0.3, 10, 2);
  EXPECT_GT(p1, p2);
}

}  // namespace
}  // namespace fast::hash
