// Ablation: does adding a quadratic polynomial model to the fitting
// sequence (ExtendedRegistry) improve compression over the paper's
// PMC/Swing/Gorilla trio? This probes the paper's extensibility claim —
// model sets are workload-dependent and user-swappable (§3.1).

#include "bench/baselines/polynomial.h"
#include "bench/harness.h"

int main() {
  using namespace modelardb;
  bench::PrintHeader("Ablation",
                     "Adding a polynomial model to the sequence");
  bench::TempDir dir("abl_poly");
  ModelRegistry extended = ExtendedRegistry();
  std::printf("%-8s %18s %18s %10s\n", "bound", "default (MiB)",
              "with poly (MiB)", "ratio");
  for (double pct : {0.0, 1.0, 5.0, 10.0}) {
    auto ds_default = bench::MakeEp();
    auto run_default = bench::CheckOk(
        bench::BuildModelar(&ds_default, false, pct, 1,
                            dir.Sub("d" + std::to_string(pct))),
        "default");
    auto ds_extended = bench::MakeEp();
    auto run_extended = bench::CheckOk(
        bench::BuildModelar(&ds_extended, false, pct, 1,
                            dir.Sub("e" + std::to_string(pct)), nullptr,
                            &extended),
        "extended");
    double d = bench::Mib(run_default.engine->DiskBytes());
    double e = bench::Mib(run_extended.engine->DiskBytes());
    std::printf("%-7.0f%% %18.3f %18.3f %9.3fx\n", pct, d, e, d / e);

    IngestStats stats = run_extended.engine->TotalStats();
    auto it = stats.values_per_model.find(kMidPolynomial);
    int64_t poly_points =
        it == stats.values_per_model.end() ? 0 : it->second;
    std::printf("         polynomial won %lld of %lld data points\n",
                static_cast<long long>(poly_points),
                static_cast<long long>(stats.values_ingested));
  }
  bench::PrintNote("adaptive selection keeps the best model per window; a "
                   "richer model set can only trade ingest CPU for bytes");
  return 0;
}
