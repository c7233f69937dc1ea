// Ablation (docs/EXPERIMENTS.md "Ablations"): how much of the hybrid machine's win over the
// cache-based machine comes from avoiding prefetcher pollution/collisions.
//
// Thin wrapper over the registered "ablation_prefetch" experiment spec
// (src/driver); use `hm_sweep run --filter ablation_prefetch` for JSON/CSV.
#include "driver/sweep.hpp"

int main() { return hm::driver::bench_main("ablation_prefetch"); }
