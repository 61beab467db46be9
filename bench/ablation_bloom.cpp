// Ablation — Bloom summary geometry (DESIGN.md §5): filter width m,
// quantization cell size and descriptor group size vs. the signature
// separation (source vs unrelated Jaccard) and retrieval recall.
#include <cstdio>

#include "common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace fast::bench {
namespace {

void run(const workload::DatasetSpec& spec, std::size_t queries) {
  DatasetEnv env = make_dataset_env(spec, queries);
  print_dataset_banner(env.dataset);

  util::Table table({"m(bits)", "cell", "group", "sig bytes", "src J",
                     "cross J", "src recall@5"});
  for (std::size_t bits : {4096, 16384, 65536}) {
    for (float cell : {1.0f, 2.0f, 3.0f}) {
      core::FastConfig cfg;
      cfg.bloom_bits = bits;
      cfg.lsh.dim = bits;
      cfg.quantize_cell = cell;
      SchemeConfig scfg;
      std::unique_ptr<core::FastIndex> index =
          build_fast_only(env, scfg, cfg);

      // Signature stats.
      std::vector<hash::SparseSignature> sigs;
      util::OnlineStats bytes;
      for (const auto& photo : env.dataset.photos) {
        sigs.push_back(index->summarize(photo.image));
        bytes.add(static_cast<double>(sigs.back().storage_bytes()));
        index->insert_signature(photo.id, sigs.back());
      }
      util::OnlineStats src_j, cross_j;
      std::size_t recall = 0;
      for (const auto& q : env.queries) {
        const auto qs = index->summarize(q.image);
        const hash::SparseSignature::DenseQuery dense(qs);
        for (std::size_t i = 0; i < sigs.size(); ++i) {
          const double j = dense.jaccard(sigs[i]);
          if (i == q.source) {
            src_j.add(j);
          } else if (env.dataset.photos[i].landmark != q.landmark) {
            cross_j.add(j);
          }
        }
        recall += contains_id(index->query_signature(qs, 5).hits, q.source);
      }
      table.add_row(
          {std::to_string(bits), util::fmt_double(cell, 1),
           std::to_string(index->config().quantize_group_dims),
           util::fmt_bytes(bytes.mean()), util::fmt_double(src_j.mean(), 3),
           util::fmt_double(cross_j.mean(), 3),
           util::fmt_percent(static_cast<double>(recall) /
                                 static_cast<double>(env.queries.size()),
                             1)});
    }
  }
  table.print("Ablation — Bloom summary geometry (" + env.dataset.spec.name +
              ")");
}

}  // namespace
}  // namespace fast::bench

int main(int argc, char** argv) {
  using namespace fast;
  const bench::BenchScale scale = bench::BenchScale::from_args(argc, argv);
  std::printf("== bench ablation_bloom: summary geometry ==\n");
  bench::run(workload::DatasetSpec::wuhan(scale.wuhan_images), scale.queries);
  return 0;
}
