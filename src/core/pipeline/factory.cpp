#include "core/pipeline/factory.hpp"

#include "hash/aggregators.hpp"
#include "hash/group_stores.hpp"

namespace fast::core::pipeline {

std::unique_ptr<SemanticAggregator> make_aggregator(const FastConfig& config) {
  if (config.sa_backend == FastConfig::SaBackend::kPStable) {
    return std::make_unique<hash::PStableAggregator>(
        config.lsh, config.probe_depth, config.lsh_input_scale);
  }
  return std::make_unique<hash::MinHashAggregator>(config.minhash,
                                                   config.minhash_multiprobe);
}

std::unique_ptr<GroupStore> make_group_store(const FastConfig& config,
                                             std::size_t tables) {
  if (config.chs_backend == FastConfig::ChsBackend::kChained) {
    return std::make_unique<hash::ChainedGroupStore>(
        config.chained_buckets, config.cuckoo.seed, tables);
  }
  return std::make_unique<hash::FlatCuckooGroupStore>(config.cuckoo, tables);
}

}  // namespace fast::core::pipeline
