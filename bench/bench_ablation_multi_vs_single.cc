// Ablation (§5.1 vs §5.2): multiple models per segment vs one group model
// per segment.
//
// The paper argues the per-series wrapper removes duplicate metadata but
// cannot shrink the values, while the fully group-aware models (§5.2)
// compress values across the group too. This bench ingests the same EP
// data with both registries and reports storage per error bound.

#include "bench/baselines/per_series.h"
#include "bench/harness.h"

int main() {
  using namespace modelardb;
  bench::PrintHeader("Ablation", "Multiple models per segment (5.1) vs "
                                 "single group model (5.2)");
  bench::TempDir dir("abl_multi");
  std::printf("%-8s %16s %16s %10s\n", "bound", "multi (MiB)",
              "single (MiB)", "single/multi");
  for (double pct : {0.0, 1.0, 5.0, 10.0}) {
    ModelRegistry multi = MultiModelPerSegmentRegistry();
    auto ds_multi = bench::MakeEp();
    auto multi_run = bench::CheckOk(
        bench::BuildModelar(&ds_multi, false, pct, 1,
                            dir.Sub("m" + std::to_string(pct)), nullptr,
                            &multi),
        "multi");
    auto ds_single = bench::MakeEp();
    auto single_run = bench::CheckOk(
        bench::BuildModelar(&ds_single, false, pct, 1,
                            dir.Sub("s" + std::to_string(pct))),
        "single");
    double multi_mib = bench::Mib(multi_run.engine->DiskBytes());
    double single_mib = bench::Mib(single_run.engine->DiskBytes());
    std::printf("%-7.0f%% %16.2f %16.2f %9.2fx\n", pct, multi_mib,
                single_mib, multi_mib / single_mib);
  }
  bench::PrintNote("target: the single group model needs clearly less "
                   "space on correlated data at every bound (§5.2)");
  return 0;
}
