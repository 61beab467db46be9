// Google-benchmark micro suite for the hashing substrate: raw hash
// functions, Bloom operations, sparse-signature algebra, LSH backends and
// the cuckoo tables (standard vs flat). The GroupStore find benches publish
// the modeled slot reads per lookup, so the probe-cost gap between flat
// and chained addressing is visible next to the timings.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "hash/bloom_filter.hpp"
#include "hash/cuckoo_table.hpp"
#include "hash/flat_cuckoo_table.hpp"
#include "hash/group_stores.hpp"
#include "hash/hashes.hpp"
#include "hash/lsh_table_chained.hpp"
#include "hash/minhash.hpp"
#include "hash/pstable_lsh.hpp"
#include "hash/sparse_signature.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace fast;

std::vector<std::uint8_t> make_key(std::size_t len) {
  util::Rng rng(len);
  std::vector<std::uint8_t> key(len);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  return key;
}

void BM_Murmur3(benchmark::State& state) {
  const auto key = make_key(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::murmur3_128(key.data(), key.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Murmur3)->Arg(16)->Arg(144)->Arg(4096);

void BM_Fnv1a(benchmark::State& state) {
  const auto key = make_key(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::fnv1a_64(key.data(), key.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fnv1a)->Arg(16)->Arg(144);

void BM_BloomInsert(benchmark::State& state) {
  hash::BloomFilter bf(16384, 8);
  std::uint64_t i = 0;
  for (auto _ : state) {
    bf.insert_u64(i++);
  }
}
BENCHMARK(BM_BloomInsert);

void BM_BloomQuery(benchmark::State& state) {
  hash::BloomFilter bf(16384, 8);
  for (std::uint64_t i = 0; i < 500; ++i) bf.insert_u64(i);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.maybe_contains_u64(i++ % 1000));
  }
}
BENCHMARK(BM_BloomQuery);

hash::SparseSignature make_signature(std::size_t popcount,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> bits;
  std::uint32_t cur = 0;
  for (std::size_t i = 0; i < popcount; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(16));
    bits.push_back(cur);
  }
  return hash::SparseSignature(std::move(bits), cur + 1);
}

void BM_SparseJaccard(benchmark::State& state) {
  const auto a = make_signature(static_cast<std::size_t>(state.range(0)), 1);
  const auto b = make_signature(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::SparseSignature::jaccard(a, b));
  }
}
BENCHMARK(BM_SparseJaccard)->Arg(256)->Arg(2048);

// The rank step's shape: one query bitset built per 360 candidates (about
// one search query's candidate list), so the time per iteration is the
// per-candidate cost including its share of the build.
void BM_DenseQueryJaccard(benchmark::State& state) {
  constexpr std::size_t kCandidates = 360;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto q = make_signature(n, 1);
  std::vector<hash::SparseSignature> candidates;
  for (std::size_t c = 0; c < kCandidates; ++c) {
    candidates.push_back(make_signature(n, 2 + c));
  }
  for (auto _ : state) {
    const hash::SparseSignature::DenseQuery dense(q);
    for (const auto& c : candidates) {
      benchmark::DoNotOptimize(dense.jaccard(c));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCandidates));
  state.counters["s_per_candidate"] = benchmark::Counter(
      static_cast<double>(kCandidates),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_DenseQueryJaccard)->Arg(256)->Arg(2048);

void BM_SparseEncode(benchmark::State& state) {
  const auto sig = make_signature(2048, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig.encode());
  }
}
BENCHMARK(BM_SparseEncode);

void BM_PStableAllKeys(benchmark::State& state) {
  hash::LshConfig cfg;
  cfg.dim = static_cast<std::size_t>(state.range(0));
  hash::PStableLsh lsh(cfg);
  util::Rng rng(5);
  std::vector<float> v(cfg.dim);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsh.all_keys(v));
  }
}
BENCHMARK(BM_PStableAllKeys)->Arg(256)->Arg(4096)->Arg(16384);

// Sparse-gather counterpart: BM_PStableAllKeysSparse/<dim>/<nnz> derives
// all L tables' keys for a 0/1 signature with nnz set bits. The
// speedup_vs_dense counter divides a dense all_keys reference timing
// (measured once at setup) by this benchmark's per-iteration time; expect
// roughly dim/nnz.
void BM_PStableAllKeysSparse(benchmark::State& state) {
  hash::LshConfig cfg;
  cfg.dim = static_cast<std::size_t>(state.range(0));
  const auto nnz = static_cast<std::size_t>(state.range(1));
  hash::PStableLsh lsh(cfg);
  util::Rng rng(5);
  std::vector<std::uint32_t> bits;
  const std::size_t stride = cfg.dim / (nnz + 1);
  std::uint32_t cur = 0;
  for (std::size_t i = 0; i < nnz; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(
                   stride > 1 ? stride - 1 : 1));
    bits.push_back(std::min(cur, static_cast<std::uint32_t>(cfg.dim - 1)));
  }
  bits.erase(std::unique(bits.begin(), bits.end()), bits.end());

  // Dense reference: the same signature through the pre-sparse path.
  std::vector<float> dense(cfg.dim, 0.0f);
  for (const std::uint32_t b : bits) dense[b] = 1.0f;
  double dense_s = 0.0;
  {
    constexpr int kReps = 16;
    util::WallTimer timer;
    for (int r = 0; r < kReps; ++r) {
      benchmark::DoNotOptimize(lsh.all_keys(dense));
    }
    dense_s = timer.elapsed_seconds() / kReps;
  }

  hash::SparseProjectionScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lsh.all_keys_sparse(bits, 1.0f, scratch).data());
  }
  state.counters["nnz"] = static_cast<double>(bits.size());
  // dense_s * iterations / elapsed == dense_s / sparse_s.
  state.counters["speedup_vs_dense"] = benchmark::Counter(
      dense_s * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PStableAllKeysSparse)
    ->Args({256, 64})
    ->Args({4096, 256})
    ->Args({16384, 512})
    ->Args({16384, 1024});

void BM_MinHashAll(benchmark::State& state) {
  hash::MinHasher mh(hash::MinHashConfig{});
  const auto sig = make_signature(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mh.minhashes(sig));
  }
}
BENCHMARK(BM_MinHashAll)->Arg(256)->Arg(2048);

void BM_CuckooInsert_Standard(benchmark::State& state) {
  const std::size_t cap = 1 << 16;
  hash::CuckooTable table(cap);
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (table.size() > cap / 2) {
      state.PauseTiming();
      table = hash::CuckooTable(cap);
      state.ResumeTiming();
    }
    const std::uint64_t key = hash::mix64(i);
    ++i;
    benchmark::DoNotOptimize(table.insert(key, i));
  }
}
BENCHMARK(BM_CuckooInsert_Standard);

void BM_CuckooInsert_Flat(benchmark::State& state) {
  hash::FlatCuckooConfig cfg;
  cfg.capacity = 1 << 16;
  hash::FlatCuckooTable table(cfg);
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (table.size() > cfg.capacity * 9 / 10) {
      state.PauseTiming();
      table = hash::FlatCuckooTable(cfg);
      state.ResumeTiming();
    }
    const std::uint64_t key = hash::mix64(i);
    ++i;
    benchmark::DoNotOptimize(table.insert(key, i));
  }
}
BENCHMARK(BM_CuckooInsert_Flat);

void BM_CuckooFind_Standard(benchmark::State& state) {
  hash::CuckooTable table(1 << 16);
  for (std::uint64_t i = 0; i < (1 << 15); ++i) {
    table.insert(hash::mix64(i), i);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(hash::mix64(i++ % (1 << 15))));
  }
}
BENCHMARK(BM_CuckooFind_Standard);

void BM_CuckooFind_Flat(benchmark::State& state) {
  hash::FlatCuckooConfig cfg;
  cfg.capacity = 1 << 16;
  hash::FlatCuckooTable table(cfg);
  for (std::uint64_t i = 0; i < (1 << 15); ++i) {
    table.insert(hash::mix64(i), i);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(hash::mix64(i++ % (1 << 15))));
  }
}
BENCHMARK(BM_CuckooFind_Flat);

void BM_ChainedFind(benchmark::State& state) {
  hash::LshTableChained table(1 << 12);  // heavy chains: vertical addressing
  for (std::uint64_t i = 0; i < (1 << 15); ++i) {
    table.insert(hash::mix64(i % 2048), i);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(hash::mix64(i++ % 2048)));
  }
}
BENCHMARK(BM_ChainedFind);

// GroupStore level: the same mixed hit/miss lookup stream through each CHS
// backend's full find path, with the modeled slot reads per lookup (fixed
// 2W for flat addressing, the chain walk for the chained baseline).
void group_store_find(benchmark::State& state,
                      core::pipeline::GroupStore& store) {
  constexpr std::uint64_t kResident = 1 << 14;
  for (std::uint64_t i = 0; i < kResident; ++i) {
    store.place(0, hash::mix64(i), i);
  }
  std::uint64_t i = 0;
  std::size_t slot_reads = 0;
  for (auto _ : state) {
    // Even iterations hit, odd iterations miss.
    const std::uint64_t draw = i++;
    const std::uint64_t key = (draw & 1) ? hash::mix64(kResident + draw)
                                         : hash::mix64(draw % kResident);
    std::size_t probes = 0;
    benchmark::DoNotOptimize(store.find(0, key, &probes));
    slot_reads += probes;
  }
  if (state.iterations() > 0) {
    state.counters["slots_per_lookup"] =
        static_cast<double>(slot_reads) /
        static_cast<double>(state.iterations());
  }
}

void BM_GroupStoreFind_Flat(benchmark::State& state) {
  hash::FlatCuckooConfig cfg;
  cfg.capacity = 1 << 15;
  hash::FlatCuckooGroupStore store(cfg, 1);
  group_store_find(state, store);
}
BENCHMARK(BM_GroupStoreFind_Flat);

void BM_GroupStoreFind_Chained(benchmark::State& state) {
  hash::ChainedGroupStore store(1 << 13, 0x5eed, 1);
  group_store_find(state, store);
}
BENCHMARK(BM_GroupStoreFind_Chained);

}  // namespace

BENCHMARK_MAIN();
