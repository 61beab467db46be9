#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/vecmath.hpp"

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::tail(const std::string& name, double ms, std::size_t samples,
                  double p) {
  metric(name, ms, "ms");
  if (static_cast<double>(samples) * (1.0 - p / 100.0) < 10.0) {
    note("warning: " + name + " rests on " + std::to_string(samples) +
         " samples, fewer than ten beyond it");
  }
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::violation(const std::string& what) {
  violations_.push_back(what);
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    out << (i == 0 ? "" : ", ") << '"' << e.name << "\": {\"value\": "
        << fmt(e.value) << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double Samples::percentile(double p) const {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double rank = p / 100.0 * static_cast<double>(v_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v_[lo] + (v_[hi] - v_[lo]) * frac;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

double vm_rss_mb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace

double rss_mb_self() {
  ::malloc_trim(0);
  return vm_rss_mb("/proc/self/status");
}

double rss_mb_of(int pid) {
  return vm_rss_mb("/proc/" + std::to_string(pid) + "/status");
}

std::uint64_t counter_of(const fast::util::MetricsSnapshot& s,
                         const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double gauge_of(const fast::util::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

double hist_sum_of(const fast::util::MetricsSnapshot& s,
                   const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

fast::vision::PcaModel placeholder_pca() {
  // Same shape as fast_server's placeholder: 578-dim gradient patches
  // projected to 36 components.
  fast::vision::PcaModel model;
  const std::size_t input_dim = 578, output_dim = 36;
  model.mean.assign(input_dim, 0.0f);
  model.eigenvalues.assign(output_dim, 1.0f / static_cast<float>(input_dim));
  fast::util::Rng rng(0xfa57);
  model.components.resize(output_dim);
  for (auto& row : model.components) {
    row.resize(input_dim);
    for (auto& v : row) v = static_cast<float>(rng.gaussian(0.0, 1.0));
    fast::util::normalize_l2(row);
  }
  return model;
}

namespace {

/// Sets uniformly random further bits of `words` until `target` are set
/// (`placed` already are) and returns the sorted positions.
fast::hash::SparseSignature fill_uniform(std::vector<std::uint64_t> words,
                                         std::size_t placed,
                                         std::size_t target,
                                         std::uint32_t bits,
                                         fast::util::Rng& rng) {
  while (placed < target) {
    const auto b = static_cast<std::uint32_t>(rng.next_u64() % bits);
    std::uint64_t& w = words[b / 64];
    const std::uint64_t mask = std::uint64_t{1} << (b % 64);
    if ((w & mask) == 0) {
      w |= mask;
      ++placed;
    }
  }
  std::vector<std::uint32_t> out;
  out.reserve(target);
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (std::uint64_t w = words[i]; w != 0; w &= w - 1) {
      out.push_back(static_cast<std::uint32_t>(i * 64 + std::countr_zero(w)));
    }
  }
  return fast::hash::SparseSignature(std::move(out), bits);
}

}  // namespace

SignatureModel::SignatureModel(std::uint64_t seed, std::size_t clusters,
                               double zipf_skew)
    : zipf_(clusters, zipf_skew) {
  fast::util::Rng rng(seed);
  centers_.reserve(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    centers_.push_back(fill_uniform(std::vector<std::uint64_t>(kBits / 64, 0),
                                    0, kSetBits, kBits, rng));
  }
}

std::size_t SignatureModel::pick_cluster(fast::util::Rng& rng) const {
  return zipf_(rng) - 1;
}

fast::hash::SparseSignature SignatureModel::member(
    std::size_t c, fast::util::Rng& rng) const {
  // Keep 60% of the center's bits and refill to the same popcount with
  // uniform positions: a near-duplicate shot of the same scene.
  constexpr double kKeep = 0.6;
  std::vector<std::uint64_t> words(kBits / 64, 0);
  std::size_t placed = 0;
  for (std::uint32_t b : centers_[c].set_bits()) {
    if (rng.bernoulli(kKeep)) {
      words[b / 64] |= std::uint64_t{1} << (b % 64);
      ++placed;
    }
  }
  return fill_uniform(std::move(words), placed, kSetBits, kBits, rng);
}

std::vector<fast::core::ScoredId> exact_top_k(
    const fast::hash::SparseSignature& query,
    const std::vector<fast::hash::SparseSignature>& corpus,
    const std::vector<std::uint64_t>& ids, std::size_t k) {
  std::vector<fast::core::ScoredId> all;
  all.reserve(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    all.push_back({ids[i], fast::hash::SparseSignature::jaccard(query,
                                                                corpus[i])});
  }
  const std::size_t n = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n),
                    all.end(), [](const auto& a, const auto& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.id < b.id;
                    });
  all.resize(n);
  return all;
}

double recall_at_k(const std::vector<fast::core::ScoredId>& got,
                   const std::vector<fast::core::ScoredId>& truth,
                   std::size_t k,
                   const std::function<double(std::uint64_t)>& true_score) {
  const std::size_t want = std::min(k, truth.size());
  if (want == 0) return 1.0;
  const double floor_score = truth[want - 1].score;
  std::size_t found = 0;
  for (std::size_t i = 0; i < got.size() && i < k; ++i) {
    const bool in_truth =
        std::any_of(truth.begin(), truth.begin() + static_cast<long>(want),
                    [&](const auto& t) { return t.id == got[i].id; });
    if (in_truth || true_score(got[i].id) >= floor_score) ++found;
  }
  return static_cast<double>(std::min(found, want)) /
         static_cast<double>(want);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace perfbench
