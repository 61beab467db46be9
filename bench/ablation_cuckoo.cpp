// Ablation — adjacent-neighborhood window size W in the flat cuckoo table
// (DESIGN.md §5): insertion-failure probability at high load, probe count
// per lookup, and achieved load ceiling. W=1 degenerates to (near-)standard
// cuckoo; the paper's design sits around W=4. Exits nonzero when the
// paper's W=4 no longer sustains 95% load without a single failure.
#include <cstdio>
#include <cstdlib>

#include "hash/flat_cuckoo_table.hpp"
#include "hash/hashes.hpp"
#include "util/table.hpp"

namespace fast::bench {
namespace {

/// The W=4 zero-failure load the sweep must reach (a regression gate on
/// the windowed insert path; the full sweep measures about 97.5%).
constexpr std::size_t kGateWindow = 4;
constexpr double kGateLoad = 0.95;

/// Prints the window table; returns W=4's max sustainable load.
double run(std::size_t capacity, std::size_t trials) {
  double gate_load = 0;
  util::Table table({"window W", "probes/lookup", "fail@70%", "fail@85%",
                     "fail@95%", "max sustainable load"});
  for (std::size_t window : {1, 2, 4, 8}) {
    double rates[3] = {0, 0, 0};
    const double loads[3] = {0.70, 0.85, 0.95};
    for (int li = 0; li < 3; ++li) {
      std::size_t failures = 0, attempts = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        hash::FlatCuckooConfig cfg;
        cfg.capacity = capacity;
        cfg.window = window;
        cfg.seed = 0xabc0 + t;
        hash::FlatCuckooTable tbl(cfg);
        const auto items = static_cast<std::size_t>(
            loads[li] * static_cast<double>(capacity));
        for (std::size_t i = 0; i < items; ++i) {
          failures += !tbl.insert(
              hash::mix64(cfg.seed ^ (i * 0x9e3779b97f4a7c15ULL)), i);
          ++attempts;
        }
      }
      rates[li] = static_cast<double>(failures) / static_cast<double>(attempts);
    }
    // Max sustainable load: largest load with zero failures in one trial.
    double max_load = 0;
    for (double load = 0.50; load <= 0.995; load += 0.025) {
      hash::FlatCuckooConfig cfg;
      cfg.capacity = capacity;
      cfg.window = window;
      hash::FlatCuckooTable t(cfg);
      bool ok = true;
      const auto items =
          static_cast<std::size_t>(load * static_cast<double>(capacity));
      for (std::size_t i = 0; i < items && ok; ++i) {
        ok = t.insert(hash::mix64(0x10ad ^ (i * 0x9e3779b97f4a7c15ULL)), i);
      }
      if (ok) max_load = load;
    }
    if (window == kGateWindow) gate_load = max_load;
    table.add_row({std::to_string(window),
                   std::to_string(2 * window),
                   util::fmt_sci(rates[0]), util::fmt_sci(rates[1]),
                   util::fmt_sci(rates[2]),
                   util::fmt_percent(max_load, 1)});
  }
  table.print("Ablation — neighborhood window of the flat cuckoo table");
  return gate_load;
}

}  // namespace
}  // namespace fast::bench

int main(int argc, char** argv) {
  std::printf("== bench ablation_cuckoo: neighborhood window ==\n");
  std::size_t capacity = 1 << 14;
  std::size_t trials = 6;
  if (argc > 1) capacity = static_cast<std::size_t>(std::atoi(argv[1]));
  if (argc > 2) trials = static_cast<std::size_t>(std::atoi(argv[2]));
  const double gate_load = fast::bench::run(capacity, trials);
  // The sweep steps by 0.025 in floating point; allow for its rounding.
  const bool ok = gate_load + 1e-9 >= fast::bench::kGateLoad;
  std::printf("W=%zu max sustainable load %.1f%% (gate >= %.0f%%) -> %s\n",
              fast::bench::kGateWindow, 100.0 * gate_load,
              100.0 * fast::bench::kGateLoad, ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
