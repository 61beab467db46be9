// Stage-oriented pipeline tour: the same FastIndex behaviour over two CHS
// backends, plus the batch-first execution path.
//
//   1. stock index (MinHash banding aggregator + flat cuckoo store)
//   2. a config-selected backend (MinHash banding + chained vertical
//      addressing, the paper's Sec. III baseline layout)
//
// Every variant is fed through insert_batch/query_batch with a thread
// pool, which parallelises feature extraction + summarisation before the
// sequential placement step.
//
// Run: ./build/examples/batch_pipeline [num_images]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>

#include "core/fast_index.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"
#include "vision/pca_sift.hpp"
#include "workload/query_gen.hpp"
#include "workload/scene_generator.hpp"

namespace {

struct RunStats {
  double build_s = 0;
  double query_s = 0;
  std::size_t hits = 0;
  std::size_t groups = 0;
};

RunStats run(fast::core::FastIndex& index,
             const fast::workload::Dataset& dataset,
             const std::vector<fast::workload::DupQuery>& queries,
             fast::util::ThreadPool& pool) {
  using namespace fast;
  std::vector<core::BatchImage> items;
  items.reserve(dataset.photos.size());
  for (const auto& photo : dataset.photos) {
    items.push_back(core::BatchImage{photo.id, &photo.image});
  }
  util::WallTimer timer;
  index.insert_batch(items, &pool);
  RunStats stats;
  stats.build_s = timer.elapsed_seconds();

  std::vector<const img::Image*> query_images;
  query_images.reserve(queries.size());
  for (const auto& q : queries) query_images.push_back(&q.image);
  timer.reset();
  const auto results = index.query_batch(query_images, 5, &pool);
  stats.query_s = timer.elapsed_seconds();

  for (std::size_t i = 0; i < results.size(); ++i) {
    for (const auto& hit : results[i].hits) {
      bool relevant = false;
      for (std::uint64_t id : queries[i].relevant) {
        if (id == hit.id) relevant = true;
      }
      if (relevant) {
        ++stats.hits;
        break;
      }
    }
  }
  stats.groups = index.group_count();
  return stats;
}

// Writes the variant's per-stage metrics registry next to the tabular
// output (FAST_METRICS_DIR overrides the directory). Non-fatal on failure.
void dump_metrics(const fast::core::FastIndex& index, const std::string& tag) {
  const char* override_dir = std::getenv("FAST_METRICS_DIR");
  const std::string dir = override_dir != nullptr ? override_dir : "results";
  try {
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/batch_pipeline_" + tag + "_metrics.json";
    index.metrics().write_json(path);
    std::printf("metrics: %s\n", path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metrics dump failed for %s: %s\n", tag.c_str(),
                 e.what());
  }
}

// Per-variant trace export: the tracer is process-global, so each variant
// writes its spans and then reset()s — otherwise variant 2's trace would
// contain every span variant 1 recorded.
void dump_trace(const std::string& tag) {
  fast::util::Tracer& tracer = fast::util::Tracer::global();
  const auto stats = tracer.stats();
  if (!tracer.enabled() && stats.spans_recorded == 0) return;
  const char* trace_dir = std::getenv("FAST_TRACE_DIR");
  const char* metrics_dir = std::getenv("FAST_METRICS_DIR");
  const std::string dir = trace_dir != nullptr     ? trace_dir
                          : metrics_dir != nullptr ? metrics_dir
                                                   : "results";
  try {
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/batch_pipeline_" + tag + ".trace.json";
    tracer.write_chrome_trace(path);
    tracer.write_profiles(dir + "/batch_pipeline_" + tag +
                          ".query_profiles.json");
    std::printf("trace: %s (%llu spans)\n", path.c_str(),
                static_cast<unsigned long long>(stats.spans_recorded));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace dump failed for %s: %s\n", tag.c_str(),
                 e.what());
  }
  tracer.reset();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fast;
  util::configure_global_tracer_from_env();
  std::size_t num_images = 120;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
      util::TraceOptions opts = util::Tracer::global().options();
      opts.sample_rate =
          arg == "--trace" ? 1.0 : std::atof(arg.c_str() + sizeof("--trace=") - 1);
      util::Tracer::global().configure(opts);
    } else if (std::atoi(argv[i]) > 0) {
      num_images = static_cast<std::size_t>(std::atoi(argv[i]));
    }
  }

  workload::DatasetSpec spec = workload::DatasetSpec::wuhan(num_images);
  const workload::Dataset dataset = workload::SceneGenerator(spec).generate();
  std::vector<img::Image> sample;
  for (std::size_t i = 0; i < dataset.photos.size() && i < 24; ++i) {
    sample.push_back(dataset.photos[i].image);
  }
  const vision::PcaModel pca = vision::train_pca_sift(sample);
  const auto queries = workload::make_dup_queries(dataset, 20);
  util::ThreadPool pool(4);

  util::Table table({"pipeline", "build", "query", "recall@5", "groups"});
  const auto add = [&](const char* name, RunStats s) {
    table.add_row({name, util::fmt_duration(s.build_s),
                   util::fmt_duration(s.query_s),
                   std::to_string(s.hits) + "/" + std::to_string(queries.size()),
                   std::to_string(s.groups)});
  };

  // 1. Stock pipeline: MinHash banding over flat cuckoo tables.
  {
    core::FastIndex index(core::FastConfig{}, pca);
    add("minhash + flat-cuckoo", run(index, dataset, queries, pool));
    dump_metrics(index, "flat_cuckoo");
    dump_trace("flat_cuckoo");
  }

  // 2. Backends picked from config alone — no code changes.
  {
    core::FastConfig cfg;
    cfg.chs_backend = core::FastConfig::ChsBackend::kChained;
    core::FastIndex index(cfg, pca);
    add("minhash + chained", run(index, dataset, queries, pool));
    dump_metrics(index, "chained");
    dump_trace("chained");
  }

  table.print("batch pipeline variants over " +
              std::to_string(dataset.photos.size()) + " photos");
  return 0;
}
