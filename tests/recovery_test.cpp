// Crash-recovery validation for the durable index (snapshot + WAL).
//
// Two layers:
//  - RecoveryTest: directed scenarios over the recovery contract — WAL
//    replay, snapshot fallback, torn tails, config mismatch, retention.
//  - CrashMatrixTest: exhaustive fault sweeps. A scripted workload runs
//    under FaultInjectingEnv once per failure point (every mutating I/O op
//    x {fail, short write, torn write}); after each planned crash the
//    directory is recovered with a clean env and the result is compared
//    BIT-EXACTLY against a reference index built from the acknowledged
//    operations. The invariants: no acknowledged record is ever lost, no
//    erased id is ever resurrected, and at most the single in-flight
//    mutation may additionally survive.
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fast_index.hpp"
#include "core/tiered_index.hpp"
#include "storage/io.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"
#include "golden_fixture.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace fast::core {
namespace {

std::string fresh_dir(const std::string& name) {
  // ctest runs every case as its own process against the shared TempDir;
  // the pid keeps concurrently running cases (e.g. the three crash-matrix
  // sweeps, which all start with a dry run) out of each other's state.
  const std::string dir = ::testing::TempDir() + "fast_recovery_" +
                          std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

FastConfig small_config(
    FastConfig::ChsBackend backend = FastConfig::ChsBackend::kFlatCuckoo) {
  FastConfig cfg;
  cfg.cuckoo.capacity = 256;
  cfg.chs_backend = backend;
  return cfg;
}

/// Deterministic synthetic signature with ~`popcount` set bits.
hash::SparseSignature make_signature(std::uint64_t seed,
                                     std::size_t bloom_bits,
                                     std::size_t popcount = 96) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<std::uint32_t> bits;
  std::uint32_t cur = 0;
  const std::uint32_t max_step =
      static_cast<std::uint32_t>(bloom_bits / (popcount + 1));
  for (std::size_t i = 0; i < popcount; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(max_step));
    if (cur >= bloom_bits) break;
    bits.push_back(cur);
  }
  return hash::SparseSignature(bits, bloom_bits);
}

/// Strict state equality: same ids with identical signatures, and identical
/// ranked results (ids AND scores) for a set of probe queries. Two indexes
/// built by the same apply sequence must pass this bit-exactly.
void expect_same_state(const FastIndex& got, const FastIndex& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.group_count(), want.group_count());
  for (std::uint64_t id = 0; id < 64; ++id) {
    const hash::SparseSignature* a = got.signature_of(id);
    const hash::SparseSignature* b = want.signature_of(id);
    ASSERT_EQ(a == nullptr, b == nullptr) << "id " << id;
    if (a != nullptr) {
      EXPECT_EQ(a->set_bits(), b->set_bits()) << "id " << id;
    }
  }
  for (std::uint64_t q = 0; q < 5; ++q) {
    const auto sig = make_signature(1000 + q, want.config().bloom_bits);
    const QueryResult ra = got.query_signature(sig, 10);
    const QueryResult rb = want.query_signature(sig, 10);
    ASSERT_EQ(ra.hits.size(), rb.hits.size()) << "query " << q;
    for (std::size_t i = 0; i < ra.hits.size(); ++i) {
      EXPECT_EQ(ra.hits[i].id, rb.hits[i].id) << "query " << q << " hit " << i;
      EXPECT_EQ(ra.hits[i].score, rb.hits[i].score)
          << "query " << q << " hit " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Directed recovery scenarios
// ---------------------------------------------------------------------------

TEST(RecoveryTest, FreshDirectoryOpensEmptyDurableIndex) {
  DurabilityOptions opts;
  opts.dir = fresh_dir("fresh");
  RecoveryStats stats;
  auto index = FastIndex::open_or_recover(small_config(), test::fake_pca(),
                                          opts, &stats);
  ASSERT_TRUE(index.ok()) << index.status().to_string();
  EXPECT_EQ(index.value().size(), 0u);
  EXPECT_TRUE(index.value().durable());
  EXPECT_EQ(index.value().last_seq(), 0u);
  EXPECT_FALSE(stats.loaded_snapshot);
  EXPECT_EQ(stats.replayed_records, 0u);
}

TEST(RecoveryTest, WalReplayRestoresInsertsExactly) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("wal_replay");

  FastIndex reference(cfg, pca);
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 30; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      EXPECT_EQ(durable.insert_signature(id, sig).ok,
                reference.insert_signature(id, sig).ok);
    }
    EXPECT_EQ(durable.last_seq(), 30u);
  }

  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_FALSE(stats.loaded_snapshot);
  EXPECT_EQ(stats.replayed_records, 30u);
  EXPECT_EQ(recovered.value().last_seq(), 30u);
  expect_same_state(recovered.value(), reference);
}

TEST(RecoveryTest, SnapshotLoadNeedsNoReplay) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("snap_load");

  FastIndex reference(cfg, pca);
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 20; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
  }

  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.snapshot_seq, 20u);
  EXPECT_EQ(stats.replayed_records, 0u);
  expect_same_state(recovered.value(), reference);
}

TEST(RecoveryTest, SnapshotPlusWalTailReplay) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("snap_tail");

  FastIndex reference(cfg, pca);
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 12; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
    for (std::uint64_t id = 12; id < 20; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    EXPECT_TRUE(durable.erase(3));
    EXPECT_TRUE(reference.erase(3));
    EXPECT_TRUE(durable.erase(15));
    EXPECT_TRUE(reference.erase(15));
  }

  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.snapshot_seq, 12u);
  EXPECT_EQ(stats.replayed_records, 10u);  // 8 inserts + 2 erases
  expect_same_state(recovered.value(), reference);
}

TEST(RecoveryTest, ErasedIdIsNeverResurrected) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("erase");
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 10; ++id) {
      durable.insert_signature(id, make_signature(id, cfg.bloom_bits));
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
    EXPECT_TRUE(durable.erase(4));  // erase AFTER the snapshot holds the id
    EXPECT_FALSE(durable.erase(77));  // unknown id: no-op, not logged
  }
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().signature_of(4), nullptr);
  EXPECT_EQ(recovered.value().size(), 9u);
}

TEST(RecoveryTest, ReInsertAfterEraseKeepsLatestSignature) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("reinsert");
  const auto v1 = make_signature(500, cfg.bloom_bits);
  const auto v2 = make_signature(501, cfg.bloom_bits);
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    durable.insert_signature(9, v1);
    EXPECT_TRUE(durable.erase(9));
    durable.insert_signature(9, v2);
  }
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts);
  ASSERT_TRUE(recovered.ok());
  ASSERT_NE(recovered.value().signature_of(9), nullptr);
  EXPECT_EQ(recovered.value().signature_of(9)->set_bits(), v2.set_bits());
}

TEST(RecoveryTest, ConfigMismatchIsHardError) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("mismatch");
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    durable.insert_signature(1, make_signature(1, cfg.bloom_bits));
    ASSERT_TRUE(durable.save_snapshot().ok());
  }
  FastConfig other = cfg;
  other.minhash.seed ^= 1;  // different SA geometry -> different groups
  auto recovered = FastIndex::open_or_recover(other, pca, opts);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), storage::StatusCode::kConfigMismatch);
}

TEST(RecoveryTest, CorruptNewestSnapshotFallsBackExactly) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("fallback");

  FastIndex reference(cfg, pca);
  std::uint64_t newest_seq = 0;
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 10; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
    for (std::uint64_t id = 10; id < 16; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
    newest_seq = durable.last_seq();
  }
  // Bit-rot the newest snapshot image. Retention kept the previous snapshot
  // and the WAL segments it does not cover, so recovery must reproduce the
  // exact pre-corruption state from the older generation.
  const std::string newest =
      opts.dir + "/" + storage::snapshot_file_name(newest_seq);
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(48);
    const char x = 0x7f;
    f.write(&x, 1);
  }
  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(stats.snapshots_skipped, 1u);
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.snapshot_seq, 10u);
  EXPECT_EQ(stats.replayed_records, 6u);
  expect_same_state(recovered.value(), reference);
}

TEST(RecoveryTest, SnapshotRetainsExactlyOnePreviousGeneration) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("retention");
  auto opened = FastIndex::open_or_recover(cfg, pca, opts);
  ASSERT_TRUE(opened.ok());
  FastIndex durable = std::move(opened).value();

  std::vector<std::uint64_t> snapshot_seqs;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      const auto id = static_cast<std::uint64_t>(round) * 4 + i;
      durable.insert_signature(id, make_signature(id, cfg.bloom_bits));
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
    snapshot_seqs.push_back(durable.last_seq());
  }
  storage::Env& env = storage::Env::posix();
  // Newest + one previous generation live; the oldest is gone.
  EXPECT_TRUE(env.file_exists(
      opts.dir + "/" + storage::snapshot_file_name(snapshot_seqs[2])));
  EXPECT_TRUE(env.file_exists(
      opts.dir + "/" + storage::snapshot_file_name(snapshot_seqs[1])));
  EXPECT_FALSE(env.file_exists(
      opts.dir + "/" + storage::snapshot_file_name(snapshot_seqs[0])));
}

TEST(RecoveryTest, TornWalTailIsTruncatedNotFatal) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("torn_tail");
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 5; ++id) {
      durable.insert_signature(id, make_signature(id, cfg.bloom_bits));
    }
  }
  // Tear the last frame, as a crash mid-append would.
  const std::string segment = opts.dir + "/" + storage::wal_segment_name(1);
  const auto full = std::filesystem::file_size(segment);
  std::filesystem::resize_file(segment, full - 7);

  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.wal_torn);
  EXPECT_EQ(recovered.value().size(), 4u);
  EXPECT_EQ(recovered.value().last_seq(), 4u);
  EXPECT_NE(recovered.value().signature_of(3), nullptr);
  EXPECT_EQ(recovered.value().signature_of(4), nullptr);
}

TEST(RecoveryTest, StrayFilesInDirectoryAreIgnored) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("stray");
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    durable.insert_signature(1, make_signature(1, cfg.bloom_bits));
  }
  // A crashed snapshot writer leaves a .tmp; users leave READMEs.
  for (const char* name : {"snapshot-00000000000000000099.fast.tmp",
                           "README.txt", "wal-backup.old"}) {
    std::ofstream out(opts.dir + "/" + name, std::ios::binary);
    out << "junk";
  }
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(recovered.value().size(), 1u);
}

TEST(RecoveryTest, WalMetricsAccumulate) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("metrics");
  auto opened = FastIndex::open_or_recover(cfg, pca, opts);
  ASSERT_TRUE(opened.ok());
  FastIndex durable = std::move(opened).value();
  for (std::uint64_t id = 0; id < 3; ++id) {
    durable.insert_signature(id, make_signature(id, cfg.bloom_bits));
  }
  const auto snap = durable.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("wal.appends"), 3u);
  EXPECT_EQ(snap.counters.at("wal.syncs"), 3u);  // wal_sync_every = 1
  EXPECT_GT(snap.counters.at("wal.bytes"), 0u);
}

TEST(RecoveryTest, GroupSyncedWalAcksInBatches) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("group_sync");
  opts.wal_sync_every = 4;
  auto opened = FastIndex::open_or_recover(cfg, pca, opts);
  ASSERT_TRUE(opened.ok());
  FastIndex durable = std::move(opened).value();
  for (std::uint64_t id = 0; id < 8; ++id) {
    durable.insert_signature(id, make_signature(id, cfg.bloom_bits));
  }
  const auto snap = durable.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("wal.appends"), 8u);
  EXPECT_EQ(snap.counters.at("wal.syncs"), 2u);
}

// ---------------------------------------------------------------------------
// Crash matrix
// ---------------------------------------------------------------------------

// The scripted workload's logged mutations, in order. Keeping the script in
// data form lets the checker re-apply exactly the acknowledged prefix (plus
// at most the one in-flight record) to a reference index.
struct ScriptOp {
  bool is_erase = false;
  std::uint64_t id = 0;
  std::uint64_t sig_seed = 0;  // inserts only
};

std::vector<ScriptOp> crash_script() {
  std::vector<ScriptOp> ops;
  for (std::uint64_t id = 0; id < 10; ++id) ops.push_back({false, id, id});
  // (snapshot happens after op 9; see run_workload)
  for (std::uint64_t id = 10; id < 18; ++id) ops.push_back({false, id, id});
  ops.push_back({true, 3, 0});
  ops.push_back({true, 7, 0});
  ops.push_back({true, 12, 0});
  // (snapshot happens after op 20)
  for (std::uint64_t id = 18; id < 23; ++id) ops.push_back({false, id, id});
  ops.push_back({true, 15, 0});
  ops.push_back({false, 12, 912});  // re-insert an erased id, new signature
  return ops;
}

/// Snapshot points, expressed as "after N logged mutations".
constexpr std::size_t kSnapshotAfter[] = {10, 21};

void apply_script_op(FastIndex& index, const ScriptOp& op) {
  if (op.is_erase) {
    index.erase(op.id);
  } else {
    index.insert_signature(
        op.id, make_signature(op.sig_seed, index.config().bloom_bits));
  }
}

/// Runs the scripted workload against `dir` under `env` until the first
/// failure (the planned crash) or completion. Returns the number of
/// mutations that were ACKNOWLEDGED (returned without an I/O error).
std::size_t run_workload(storage::Env& env, const std::string& dir,
                         const FastConfig& cfg, const vision::PcaModel& pca) {
  DurabilityOptions opts;
  opts.dir = dir;
  opts.env = &env;
  auto opened = FastIndex::open_or_recover(cfg, pca, opts);
  if (!opened.ok()) return 0;  // crashed during open: nothing acked
  FastIndex index = std::move(opened).value();

  const std::vector<ScriptOp> script = crash_script();
  std::size_t acked = 0;
  for (std::size_t i = 0; i < script.size(); ++i) {
    try {
      apply_script_op(index, script[i]);
    } catch (const storage::IoError&) {
      return acked;  // process died mid-mutation
    }
    ++acked;
    for (const std::size_t at : kSnapshotAfter) {
      if (acked == at && !index.save_snapshot().ok()) {
        return acked;  // crash inside the snapshot/rotation path
      }
    }
  }
  return acked;
}

/// Recovers `dir` with a clean env and checks the crash invariants against
/// `acked` acknowledged mutations.
void check_recovery(const std::string& dir, const FastConfig& cfg,
                    const vision::PcaModel& pca, std::size_t acked,
                    const std::string& label) {
  DurabilityOptions opts;
  opts.dir = dir;
  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok())
      << label << ": recovery failed: " << recovered.status().to_string();

  const std::vector<ScriptOp> script = crash_script();
  const std::uint64_t got_seq = recovered.value().last_seq();
  // Every acknowledged record must survive; at most the one in-flight
  // mutation (whose bytes may have fully landed before the crash) may
  // additionally appear.
  ASSERT_GE(got_seq, acked) << label << ": acknowledged records lost";
  ASSERT_LE(got_seq, acked + 1) << label << ": phantom records appeared";
  ASSERT_LE(got_seq, script.size()) << label;

  FastIndex reference(cfg, pca);
  for (std::size_t i = 0; i < got_seq; ++i) {
    apply_script_op(reference, script[i]);
  }
  expect_same_state(recovered.value(), reference);
}

class CrashMatrixTest
    : public ::testing::TestWithParam<storage::FaultPlan::Kind> {};

TEST_P(CrashMatrixTest, NoAckedRecordLostAtAnyFailurePoint) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();

  // Dry run: count the workload's mutating I/O ops to size the sweep.
  const std::string dry = fresh_dir("matrix_dry");
  storage::FaultInjectingEnv counter(storage::Env::posix(), {});
  const std::size_t clean_acked =
      run_workload(counter, dry, cfg, pca);
  const std::size_t total_ops = counter.ops_attempted();
  ASSERT_EQ(clean_acked, crash_script().size());
  // The issue's floor: the matrix must cover at least 50 failure points.
  ASSERT_GE(total_ops, 50u);

  const storage::FaultPlan::Kind kind = GetParam();
  for (std::size_t fail_at = 0; fail_at < total_ops; ++fail_at) {
    const std::string label =
        "kind=" + std::to_string(static_cast<int>(kind)) +
        " fail_at=" + std::to_string(fail_at);
    const std::string dir =
        fresh_dir("matrix_" + std::to_string(static_cast<int>(kind)) + "_" +
                  std::to_string(fail_at));
    storage::FaultPlan plan;
    plan.kind = kind;
    plan.fail_at_op = fail_at;
    plan.seed = 0xc0ffee ^ fail_at;
    storage::FaultInjectingEnv env(storage::Env::posix(), plan);
    const std::size_t acked = run_workload(env, dir, cfg, pca);
    EXPECT_TRUE(env.crashed()) << label;
    ASSERT_NO_FATAL_FAILURE(check_recovery(dir, cfg, pca, acked, label));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashMatrixTest,
    ::testing::Values(storage::FaultPlan::Kind::kFail,
                      storage::FaultPlan::Kind::kShortWrite,
                      storage::FaultPlan::Kind::kTornWrite));

// A directory written by one CHS backend must be rejected by the other as
// a config mismatch — a typed, recoverable error, never parsed as the wrong
// store format (which would surface as corruption).
TEST(RecoveryTest, FlatChainedDirectoryMismatchIsConfigError) {
  const vision::PcaModel pca = test::fake_pca();
  const auto backends = {FastConfig::ChsBackend::kFlatCuckoo,
                         FastConfig::ChsBackend::kChained};
  int dir_no = 0;
  for (const auto writer : backends) {
    for (const auto reader : backends) {
      if (writer == reader) continue;
      const FastConfig wcfg = small_config(writer);
      DurabilityOptions opts;
      opts.dir = fresh_dir("backend_mismatch_" + std::to_string(dir_no++));
      {
        auto opened = FastIndex::open_or_recover(wcfg, pca, opts);
        ASSERT_TRUE(opened.ok());
        FastIndex durable = std::move(opened).value();
        durable.insert_signature(1, make_signature(1, wcfg.bloom_bits));
        ASSERT_TRUE(durable.save_snapshot().ok());
      }
      const FastConfig rcfg = small_config(reader);
      auto recovered = FastIndex::open_or_recover(rcfg, pca, opts);
      ASSERT_FALSE(recovered.ok());
      EXPECT_EQ(recovered.status().code(),
                storage::StatusCode::kConfigMismatch);
    }
  }
}

// ---------------------------------------------------------------------------
// Tiered recovery (memtable lanes + sealed segments + tombstones)
// ---------------------------------------------------------------------------

/// Tiny tier thresholds so the crash scripts cross seal and compaction
/// boundaries; background off keeps replay-time merges deterministic.
FastConfig tiered_config() {
  FastConfig cfg = small_config();
  cfg.tier.enabled = true;
  cfg.tier.seal_threshold = 4;
  cfg.tier.lanes = 2;
  cfg.tier.compact_fanin = 2;
  cfg.tier.compact_trigger = 2;
  cfg.tier.background = false;
  return cfg;
}

/// Layout-independent state equality for tiered indexes: recovery may land
/// ids in different segments than the pre-crash process (replay re-seals,
/// compaction re-runs), so we compare the LIVE SET and query behavior, not
/// the physical layout.
void expect_same_tier_state(const TieredIndex& got, const TieredIndex& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::uint64_t id = 0; id < 64; ++id) {
    const auto a = got.find_signature(id);
    const auto b = want.find_signature(id);
    ASSERT_EQ(a.has_value(), b.has_value()) << "id " << id;
    if (a.has_value()) {
      EXPECT_EQ(a->set_bits(), b->set_bits()) << "id " << id;
    }
  }
  for (std::uint64_t q = 0; q < 5; ++q) {
    const auto sig = make_signature(1000 + q, want.config().bloom_bits);
    const QueryResult ra = got.query_signature(sig, 10);
    const QueryResult rb = want.query_signature(sig, 10);
    ASSERT_EQ(ra.hits.size(), rb.hits.size()) << "query " << q;
    for (std::size_t i = 0; i < ra.hits.size(); ++i) {
      EXPECT_EQ(ra.hits[i].id, rb.hits[i].id) << "query " << q << " hit " << i;
      EXPECT_EQ(ra.hits[i].score, rb.hits[i].score)
          << "query " << q << " hit " << i;
    }
  }
}

void apply_tiered_op(TieredIndex& index, const ScriptOp& op) {
  if (op.is_erase) {
    index.erase(op.id);
  } else {
    index.insert_signature(
        op.id, make_signature(op.sig_seed, index.config().bloom_bits));
  }
}

/// Interleaved insert/erase churn sized to cross several seal thresholds
/// (4 mentions per lane): erases of sealed ids become tombstones, a sealed
/// tombstone later compacts away, and an erased id is re-inserted. Every
/// erase targets a live id so each op is logged (op index == WAL seq).
std::vector<ScriptOp> tiered_crash_script() {
  std::vector<ScriptOp> ops;
  for (std::uint64_t id = 0; id < 12; ++id) ops.push_back({false, id, id});
  ops.push_back({true, 1, 0});   // likely sealed by now -> tombstone
  ops.push_back({true, 6, 0});
  // (snapshot happens after op 14; see run_tiered_workload)
  for (std::uint64_t id = 12; id < 18; ++id) ops.push_back({false, id, id});
  ops.push_back({true, 14, 0});  // memtable-resident erase
  ops.push_back({true, 3, 0});
  ops.push_back({false, 6, 906});   // re-insert over a tombstone
  // (snapshot happens after op 23)
  for (std::uint64_t id = 18; id < 24; ++id) ops.push_back({false, id, id});
  ops.push_back({true, 0, 0});
  ops.push_back({false, 1, 901});   // resurrect the first erase, new content
  return ops;
}

constexpr std::size_t kTieredSnapshotAfter[] = {14, 23};

std::size_t run_tiered_workload(storage::Env& env, const std::string& dir,
                                const FastConfig& cfg,
                                const vision::PcaModel& pca) {
  DurabilityOptions opts;
  opts.dir = dir;
  opts.env = &env;
  auto opened = TieredIndex::open_or_recover(cfg, pca, opts);
  if (!opened.ok()) return 0;
  std::unique_ptr<TieredIndex> index = std::move(opened).value();

  const std::vector<ScriptOp> script = tiered_crash_script();
  std::size_t acked = 0;
  for (std::size_t i = 0; i < script.size(); ++i) {
    try {
      apply_tiered_op(*index, script[i]);
    } catch (const storage::IoError&) {
      return acked;
    }
    ++acked;
    for (const std::size_t at : kTieredSnapshotAfter) {
      if (acked == at && !index->save_snapshot().ok()) {
        return acked;
      }
    }
  }
  return acked;
}

void check_tiered_recovery(const std::string& dir, const FastConfig& cfg,
                           const vision::PcaModel& pca, std::size_t acked,
                           const std::string& label) {
  DurabilityOptions opts;
  opts.dir = dir;
  RecoveryStats stats;
  auto recovered = TieredIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok())
      << label << ": recovery failed: " << recovered.status().to_string();

  const std::vector<ScriptOp> script = tiered_crash_script();
  const std::uint64_t got_seq = recovered.value()->last_seq();
  ASSERT_GE(got_seq, acked) << label << ": acknowledged records lost";
  ASSERT_LE(got_seq, acked + 1) << label << ": phantom records appeared";
  ASSERT_LE(got_seq, script.size()) << label;

  TieredIndex reference(cfg, pca);
  for (std::size_t i = 0; i < got_seq; ++i) {
    apply_tiered_op(reference, script[i]);
  }
  expect_same_tier_state(*recovered.value(), reference);
}

TEST(TieredRecoveryTest, WalReplayRestoresTierExactly) {
  const FastConfig cfg = tiered_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("tier_wal_replay");

  TieredIndex reference(cfg, pca);
  {
    auto opened = TieredIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    auto durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 20; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable->insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    EXPECT_TRUE(durable->erase(2));
    EXPECT_TRUE(reference.erase(2));
    EXPECT_TRUE(durable->erase(17));
    EXPECT_TRUE(reference.erase(17));
    EXPECT_FALSE(durable->erase(99));  // unknown: not logged
    EXPECT_EQ(durable->last_seq(), 22u);
    EXPECT_GE(durable->segment_count(), 1u);
  }

  RecoveryStats stats;
  auto recovered = TieredIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_FALSE(stats.loaded_snapshot);
  EXPECT_EQ(stats.replayed_records, 22u);
  EXPECT_EQ(recovered.value()->last_seq(), 22u);
  // Replay re-fires the same seals, so even the layout matches a fresh run.
  EXPECT_EQ(recovered.value()->segment_count(), reference.segment_count());
  expect_same_tier_state(*recovered.value(), reference);
}

TEST(TieredRecoveryTest, SnapshotRoundTripPreservesSegmentsAndTombstones) {
  const FastConfig cfg = tiered_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("tier_snapshot");

  TieredIndex reference(cfg, pca);
  std::size_t segments_before = 0;
  std::size_t tombstones_before = 0;
  {
    auto opened = TieredIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    auto durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 16; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable->insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    EXPECT_TRUE(durable->erase(1));
    EXPECT_TRUE(reference.erase(1));
    segments_before = durable->segment_count();
    tombstones_before = durable->tombstone_count();
    ASSERT_GE(segments_before, 1u);
    ASSERT_TRUE(durable->save_snapshot().ok());
  }

  RecoveryStats stats;
  auto recovered = TieredIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.replayed_records, 0u);
  // The manifest restores the exact tier layout, not just the live set.
  EXPECT_EQ(recovered.value()->segment_count(), segments_before);
  EXPECT_EQ(recovered.value()->tombstone_count(), tombstones_before);
  expect_same_tier_state(*recovered.value(), reference);

  // And the restored tier keeps working: mutations and seals continue.
  recovered.value()->insert_signature(40, make_signature(40, cfg.bloom_bits));
  EXPECT_TRUE(recovered.value()->find_signature(40).has_value());
}

TEST(TieredRecoveryTest, SnapshotPlusChurnTailReplay) {
  const FastConfig cfg = tiered_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("tier_snap_tail");

  TieredIndex reference(cfg, pca);
  {
    auto opened = TieredIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    auto durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 10; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable->insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    ASSERT_TRUE(durable->save_snapshot().ok());
    // Churn tail: erase sealed ids, re-insert one with new content.
    EXPECT_TRUE(durable->erase(4));
    EXPECT_TRUE(reference.erase(4));
    EXPECT_TRUE(durable->erase(7));
    EXPECT_TRUE(reference.erase(7));
    const auto fresh = make_signature(704, cfg.bloom_bits);
    durable->insert_signature(7, fresh);
    reference.insert_signature(7, fresh);
  }

  RecoveryStats stats;
  auto recovered = TieredIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.snapshot_seq, 10u);
  EXPECT_EQ(stats.replayed_records, 3u);
  EXPECT_FALSE(recovered.value()->find_signature(4).has_value());
  ASSERT_TRUE(recovered.value()->find_signature(7).has_value());
  expect_same_tier_state(*recovered.value(), reference);
}

TEST(TieredRecoveryTest, FlatDirectoryRejectedByTieredConfig) {
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("tier_mismatch");
  {
    auto opened = FastIndex::open_or_recover(small_config(), pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    durable.insert_signature(1, make_signature(1, durable.config().bloom_bits));
    ASSERT_TRUE(durable.save_snapshot().ok());
  }
  // tier.enabled feeds the config fingerprint: a flat directory must not
  // be silently reinterpreted as a tiered one.
  auto recovered = TieredIndex::open_or_recover(tiered_config(), pca, opts);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), storage::StatusCode::kConfigMismatch);
}

class TieredCrashMatrixTest
    : public ::testing::TestWithParam<storage::FaultPlan::Kind> {};

TEST_P(TieredCrashMatrixTest, ChurnSurvivesAnyFailurePoint) {
  const FastConfig cfg = tiered_config();
  const vision::PcaModel pca = test::fake_pca();

  const std::string dry = fresh_dir("tier_matrix_dry");
  storage::FaultInjectingEnv counter(storage::Env::posix(), {});
  const std::size_t clean_acked = run_tiered_workload(counter, dry, cfg, pca);
  const std::size_t total_ops = counter.ops_attempted();
  ASSERT_EQ(clean_acked, tiered_crash_script().size());
  ASSERT_GE(total_ops, 50u);

  const storage::FaultPlan::Kind kind = GetParam();
  for (std::size_t fail_at = 0; fail_at < total_ops; ++fail_at) {
    const std::string label =
        "tiered kind=" + std::to_string(static_cast<int>(kind)) +
        " fail_at=" + std::to_string(fail_at);
    const std::string dir =
        fresh_dir("tier_matrix_" + std::to_string(static_cast<int>(kind)) +
                  "_" + std::to_string(fail_at));
    storage::FaultPlan plan;
    plan.kind = kind;
    plan.fail_at_op = fail_at;
    plan.seed = 0xbeef ^ fail_at;
    storage::FaultInjectingEnv env(storage::Env::posix(), plan);
    const std::size_t acked = run_tiered_workload(env, dir, cfg, pca);
    EXPECT_TRUE(env.crashed()) << label;
    ASSERT_NO_FATAL_FAILURE(
        check_tiered_recovery(dir, cfg, pca, acked, label));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TieredCrashMatrixTest,
    ::testing::Values(storage::FaultPlan::Kind::kFail,
                      storage::FaultPlan::Kind::kShortWrite,
                      storage::FaultPlan::Kind::kTornWrite));

// ---------------------------------------------------------------------------
// Hostile snapshots: CRC-valid images whose content lies
// ---------------------------------------------------------------------------

/// One lie per CHS-core payload, each re-framed with a valid CRC by the
/// snapshot writer so only the content checks can catch it.
enum class Lie {
  kCount,
  kWindow,
  kKickBudget,
  kGroupOutOfRange,
  kOrphanMember,
};

std::string lie_name(const ::testing::TestParamInfo<Lie>& info) {
  switch (info.param) {
    case Lie::kCount: return "CountLie";
    case Lie::kWindow: return "WindowLie";
    case Lie::kKickBudget: return "KickBudgetLie";
    case Lie::kGroupOutOfRange: return "GroupOutOfRange";
    case Lie::kOrphanMember: return "OrphanMember";
  }
  return "Unknown";
}

/// Overwrites the little-endian u64 at `at` (the ByteWriter encoding).
void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t v) {
  ASSERT_LE(at + 8, bytes.size());
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  util::ByteReader in{std::span<const std::uint8_t>(bytes).subspan(at)};
  return in.u64();
}

/// Where a GroupIndex payload run lives: the signature count, the group
/// count and the store, each as (payload, offset).
struct CorePayloads {
  std::vector<std::uint8_t>* sigs = nullptr;
  std::size_t sigs_at = 0;
  std::vector<std::uint8_t>* groups = nullptr;
  std::size_t groups_at = 0;
  std::vector<std::uint8_t>* store = nullptr;
  std::size_t store_at = 0;
};

/// Plants `lie` in the core payloads. Store layout (flat cuckoo): u32
/// tables, then per table u64 seed, u64 n, n x (key, group), and the
/// table: 10 u64 header fields (capacity, window, max_kicks, ...) followed
/// by 17-byte slots (key, value, occupied).
void plant_lie(const CorePayloads& p, Lie lie) {
  std::vector<std::uint8_t>& store = *p.store;
  const std::size_t log_entries = get_u64(store, p.store_at + 12);
  const std::size_t table_at = p.store_at + 20 + log_entries * 16;
  switch (lie) {
    case Lie::kCount:
      put_u64(*p.sigs, p.sigs_at, std::uint64_t{1} << 60);
      return;
    case Lie::kWindow:
      put_u64(store, table_at + 8, std::uint64_t{1} << 20);
      return;
    case Lie::kKickBudget:
      put_u64(store, table_at + 16, std::uint64_t{1} << 40);
      return;
    case Lie::kGroupOutOfRange: {
      const std::size_t capacity = get_u64(store, table_at);
      for (std::size_t i = 0; i < capacity; ++i) {
        const std::size_t slot = table_at + 80 + i * 17;
        if (store[slot + 16] != 0) {
          put_u64(store, slot + 8, std::uint64_t{1} << 40);
          return;
        }
      }
      FAIL() << "no occupied slot in table 0";
    }
    case Lie::kOrphanMember:
      ASSERT_GT(get_u64(*p.groups, p.groups_at + 8), 0u) << "group 0 empty";
      put_u64(*p.groups, p.groups_at + 16, 0xdead0000ULL);
      return;
  }
}

/// Rewrites the newest snapshot in `dir` (at `seq`) through `edit` and
/// re-publishes it under the same name with fresh CRCs.
template <typename Edit>
void rewrite_snapshot(const std::string& dir, std::uint64_t seq,
                      const Edit& edit) {
  storage::Env& env = storage::Env::posix();
  auto read = storage::read_snapshot(
      env, dir + "/" + storage::snapshot_file_name(seq));
  ASSERT_TRUE(read.ok()) << read.status().to_string();
  storage::SnapshotFile snapshot = std::move(read).value();
  ASSERT_NO_FATAL_FAILURE(edit(snapshot));
  ASSERT_TRUE(storage::write_snapshot(env, dir, snapshot).ok());
}

std::vector<std::uint8_t>& section_payload(storage::SnapshotFile& snapshot,
                                           std::uint32_t id) {
  for (auto& section : snapshot.sections) {
    if (section.id == id) return section.payload;
  }
  ADD_FAILURE() << "no section " << id;
  return snapshot.sections.front().payload;
}

class RecoveryHostileTest : public ::testing::TestWithParam<Lie> {};

// The lie must surface as an undecodable snapshot: recovery falls back to
// the previous generation and replays the WAL tail to the exact state.
TEST_P(RecoveryHostileTest, FlatLieFallsBackToOlderSnapshot) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("hostile_flat_" + std::to_string(
                                             static_cast<int>(GetParam())));
  FastIndex reference(cfg, pca);
  std::uint64_t newest_seq = 0;
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 16; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
      if (id == 9) {
        ASSERT_TRUE(durable.save_snapshot().ok());
      }
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
    newest_seq = durable.last_seq();
  }
  rewrite_snapshot(opts.dir, newest_seq, [&](storage::SnapshotFile& snap) {
    CorePayloads p;
    p.sigs = &section_payload(snap, storage::kSectionSignatures);
    p.groups = &section_payload(snap, storage::kSectionGroups);
    p.store = &section_payload(snap, storage::kSectionStore);
    plant_lie(p, GetParam());
  });

  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(stats.snapshots_skipped, 1u);
  EXPECT_EQ(stats.snapshot_seq, 10u);
  EXPECT_EQ(stats.replayed_records, 6u);
  expect_same_state(recovered.value(), reference);
}

TEST_P(RecoveryHostileTest, TieredLieFallsBackToOlderSnapshot) {
  FastConfig cfg = tiered_config();
  cfg.tier.seal_threshold = 1000;  // every id stays in a memtable section
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("hostile_tier_" + std::to_string(
                                             static_cast<int>(GetParam())));
  TieredIndex reference(cfg, pca);
  std::uint64_t newest_seq = 0;
  {
    auto opened = TieredIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<TieredIndex> durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 16; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable->insert_signature(id, sig);
      reference.insert_signature(id, sig);
      if (id == 9) {
        ASSERT_TRUE(durable->save_snapshot().ok());
      }
    }
    ASSERT_TRUE(durable->save_snapshot().ok());
    newest_seq = durable->last_seq();
  }
  rewrite_snapshot(opts.dir, newest_seq, [&](storage::SnapshotFile& snap) {
    // A memtable section: u64 lane, then signatures (each followed by one
    // cached key per table), tombstones, groups, store.
    std::vector<std::uint8_t>* mem = nullptr;
    for (auto& section : snap.sections) {
      if (section.id == storage::kSectionTierMemtable &&
          get_u64(section.payload, 8) > 0) {
        mem = &section.payload;
        break;
      }
    }
    ASSERT_NE(mem, nullptr) << "no non-empty memtable section";
    util::ByteReader in{std::span(*mem)};
    const auto offset = [&] { return mem->size() - in.remaining(); };
    in.u64();  // lane
    CorePayloads p;
    p.sigs = p.groups = p.store = mem;
    p.sigs_at = offset();
    const std::uint64_t entries = in.u64();
    for (std::uint64_t i = 0; i < entries; ++i) {
      in.u64();
      in.blob();
      in.bytes(cfg.minhash.bands * 8);
    }
    const std::uint64_t dead = in.u64();
    in.bytes(dead * 8);
    p.groups_at = offset();
    const std::uint64_t groups = in.u64();
    for (std::uint64_t g = 0; g < groups; ++g) in.bytes(in.u64() * 8);
    p.store_at = offset();
    ASSERT_TRUE(in.ok());
    plant_lie(p, GetParam());
  });

  RecoveryStats stats;
  auto recovered = TieredIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(stats.snapshots_skipped, 1u);
  EXPECT_EQ(stats.snapshot_seq, 10u);
  EXPECT_EQ(stats.replayed_records, 6u);
  expect_same_tier_state(*recovered.value(), reference);
}

INSTANTIATE_TEST_SUITE_P(Lies, RecoveryHostileTest,
                         ::testing::Values(Lie::kCount, Lie::kWindow,
                                           Lie::kKickBudget,
                                           Lie::kGroupOutOfRange,
                                           Lie::kOrphanMember),
                         lie_name);

// ---------------------------------------------------------------------------
// Golden v1 fixture
// ---------------------------------------------------------------------------

/// Copies the checked-in fixture to a scratch directory (recovery rotates
/// the WAL, which must never dirty the repository copy).
std::string golden_copy(const std::string& name) {
  const std::string src = std::string(FAST_TEST_DATA_DIR) + "/golden_v1";
  const std::string dst = fresh_dir("golden_" + name);
  std::filesystem::copy(src, dst,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing);
  return dst;
}

TEST(RecoveryGoldenTest, V1FixtureRecoversExactly) {
  DurabilityOptions opts;
  opts.dir = golden_copy("exact");
  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(test::golden_config(),
                                              test::fake_pca(), opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.snapshot_seq, 13u);
  EXPECT_EQ(stats.replayed_records, 3u);
  EXPECT_EQ(stats.snapshots_skipped, 0u);
  EXPECT_EQ(recovered.value().last_seq(), 16u);

  // The fixture bytes must decode to the same state today's code produces
  // for the same workload — any format drift breaks one side or the other.
  FastIndex reference(test::golden_config(), test::fake_pca());
  for (std::uint64_t id = 0; id < 12; ++id) {
    reference.insert_signature(
        id, test::golden_signature(id, reference.config().bloom_bits));
  }
  reference.erase(2);
  reference.insert_signature(
      12, test::golden_signature(12, reference.config().bloom_bits));
  reference.insert_signature(
      13, test::golden_signature(13, reference.config().bloom_bits));
  reference.erase(5);
  expect_same_state(recovered.value(), reference);

  for (const std::uint64_t id : test::golden_present_ids()) {
    EXPECT_NE(recovered.value().signature_of(id), nullptr) << "id " << id;
  }
  EXPECT_EQ(recovered.value().signature_of(2), nullptr);
  EXPECT_EQ(recovered.value().signature_of(5), nullptr);
}

TEST(RecoveryGoldenTest, CorruptedFixtureSnapshotFallsBackToFullReplay) {
  DurabilityOptions opts;
  opts.dir = golden_copy("corrupt");
  // Bit-rot the snapshot. The fixture retains the full WAL history (the
  // first snapshot deletes no segments), so recovery degrades to an empty
  // base plus a complete replay — same final state, one skipped snapshot.
  const std::string snapshot =
      opts.dir + "/" + storage::snapshot_file_name(13);
  ASSERT_TRUE(std::filesystem::exists(snapshot));
  {
    std::fstream f(snapshot, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(50);
    const char x = 0x2a;
    f.write(&x, 1);
  }
  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(test::golden_config(),
                                              test::fake_pca(), opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(stats.snapshots_skipped, 1u);
  EXPECT_FALSE(stats.loaded_snapshot);
  EXPECT_EQ(stats.replayed_records, 16u);
  EXPECT_EQ(recovered.value().last_seq(), 16u);
  for (const std::uint64_t id : test::golden_present_ids()) {
    EXPECT_NE(recovered.value().signature_of(id), nullptr) << "id " << id;
  }
  EXPECT_EQ(recovered.value().size(), test::golden_present_ids().size());
}

TEST(RecoveryGoldenTest, FixtureRejectsMismatchedGeometry) {
  DurabilityOptions opts;
  opts.dir = golden_copy("geometry");
  FastConfig other = test::golden_config();
  other.cuckoo.seed ^= 0x1;
  auto recovered =
      FastIndex::open_or_recover(other, test::fake_pca(), opts);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), storage::StatusCode::kConfigMismatch);
}

/// A second crash during RECOVERY itself (before the new WAL header lands)
/// must leave the directory recoverable: recovery is read-only until the
/// rotation point, so it is idempotent.
TEST(CrashMatrixTest_RecoveryCrash, CrashDuringRecoveryIsIdempotent) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  const std::string dir = fresh_dir("recovery_crash");

  // Build a directory with a snapshot and a WAL tail.
  std::size_t acked = 0;
  {
    storage::FaultInjectingEnv env(storage::Env::posix(), {});
    acked = run_workload(env, dir, cfg, pca);
  }
  ASSERT_EQ(acked, crash_script().size());

  // Crash the reopen at each of its first ops (the new segment header
  // append/sync), then verify a clean recovery still succeeds.
  for (std::size_t fail_at = 0; fail_at < 2; ++fail_at) {
    storage::FaultPlan plan;
    plan.kind = storage::FaultPlan::Kind::kTornWrite;
    plan.fail_at_op = fail_at;
    plan.seed = 42 + fail_at;
    storage::FaultInjectingEnv env(storage::Env::posix(), plan);
    DurabilityOptions opts;
    opts.dir = dir;
    opts.env = &env;
    auto attempt = FastIndex::open_or_recover(cfg, pca, opts);
    EXPECT_FALSE(attempt.ok()) << "fail_at=" << fail_at;
    ASSERT_NO_FATAL_FAILURE(
        check_recovery(dir, cfg, pca, acked,
                       "post-recovery-crash fail_at=" +
                           std::to_string(fail_at)));
  }
}

}  // namespace
}  // namespace fast::core
