// Builds the SA and CHS stage adapters a FastConfig selects. The factory is
// the only place the pipeline names concrete SA/CHS backends, so a new one
// plugs in here without touching the indexes. (FE+SM has one
// implementation, vision::BloomSummarizer, which IndexFront holds
// directly.)
#pragma once

#include <memory>

#include "core/config.hpp"
#include "core/pipeline/group_store.hpp"
#include "core/pipeline/semantic_aggregator.hpp"

namespace fast::core::pipeline {

/// SA stage per config.sa_backend (p-stable LSH or MinHash banding).
std::unique_ptr<SemanticAggregator> make_aggregator(const FastConfig& config);

/// CHS stage per config.chs_backend, sized to the aggregator's `tables`.
std::unique_ptr<GroupStore> make_group_store(const FastConfig& config,
                                             std::size_t tables);

}  // namespace fast::core::pipeline
