// Ablation (docs/EXPERIMENTS.md "Ablations"): the double store vs the naive alternative of
// disabling the read-only write-back optimization (§3.1 discusses both).
//
// Thin wrapper over the registered "ablation_double_store" experiment spec
// (src/driver); use `hm_sweep run --filter ablation_double_store` for JSON/CSV.
#include "driver/sweep.hpp"

int main() { return hm::driver::bench_main("ablation_double_store"); }
