// Fidelity of the traced rebuild.  perfbench::rebuild_point repeats the
// public calls hm::driver::run_point makes -- with a copy of the per-tile
// seed mix that is private to src/driver/sweep.cpp -- so that the traced run
// can put a span around each of them.  This test catches the copy drifting:
// for every distinct point of every benchmark workload at a small scale, the
// rebuilt result must serialize to the same point_json bytes as run_point's.
//
//   perfbench_fidelity [scale]     (default 0.02)
//
// Exits 0 when every point matches.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "driver/experiment.hpp"
#include "driver/result.hpp"
#include "driver/sweep.hpp"
#include "perfbench.hpp"

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::strtod(argv[1], nullptr) : 0.02;
  if (!(scale > 0.0)) {
    std::fprintf(stderr, "usage: perfbench_fidelity [scale > 0]\n");
    return 2;
  }
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  for (const perfbench::Workload& w : perfbench::workloads()) {
    const hm::EngineConfig engine = perfbench::engine_for(w);
    std::set<std::string> seen;
    for (const hm::driver::ExperimentSpec* spec : perfbench::experiment_order(w, 0)) {
      for (const hm::driver::SweepPoint& p : hm::driver::expand(*spec, scale)) {
        if (!seen.insert(p.canonical()).second) continue;
        const std::string want = hm::driver::point_json(hm::driver::run_point(p, engine));
        const std::string got = hm::driver::point_json(perfbench::rebuild_point(p, engine));
        ++checked;
        if (got != want) {
          ++mismatched;
          std::fprintf(stderr, "MISMATCH %s %s\n  run_point: %s\n  rebuilt:   %s\n",
                       w.name.c_str(), p.label.c_str(), want.c_str(), got.c_str());
        }
      }
    }
  }
  std::printf("perfbench_fidelity: %zu points, %zu mismatched\n", checked, mismatched);
  return checked > 0 && mismatched == 0 ? 0 : 1;
}
