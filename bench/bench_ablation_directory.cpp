// Ablation (docs/EXPERIMENTS.md "Ablations"): directory size sweep.  Fewer entries cap the
// number of LM buffers, demoting strided references to the caches.
//
// Thin wrapper over the registered "ablation_directory" experiment spec
// (src/driver); use `hm_sweep run --filter ablation_directory` for JSON/CSV.
#include "driver/sweep.hpp"

int main() { return hm::driver::bench_main("ablation_directory"); }
