// histwalk_perfbench: runs one round of a benchmark workload (or its
// reference walks) and prints the raw measurements as one JSON document on
// stdout. perfbench/run.py builds and drives this binary; see
// perfbench/README.md.
//
//   histwalk_perfbench --workload=hot_walk --seed=1 --traced=false
//                      --reference=false --quick=false --scratch-dir=DIR

#include <iostream>
#include <string>

#include "util/flags.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace histwalk;
  auto parsed = util::Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    return 2;
  }
  const util::Flags& flags = *parsed;
  perfbench::BenchConfig config;
  config.workload = flags.GetString("workload", "");
  config.scratch_dir = flags.GetString("scratch-dir", "");
  auto seed = flags.GetUint("seed", 1);
  auto reference = flags.GetBool("reference", false);
  auto traced = flags.GetBool("traced", false);
  auto quick = flags.GetBool("quick", false);
  if (!seed.ok() || !reference.ok() || !traced.ok() || !quick.ok()) {
    std::cerr << "bad flag value\n";
    return 2;
  }
  if (auto status = flags.CheckAllRead(); !status.ok()) {
    std::cerr << status << "\n";
    return 2;
  }
  if (config.scratch_dir.empty() || !flags.positional().empty()) {
    std::cerr << "usage: histwalk_perfbench --workload=W --scratch-dir=DIR "
                 "[--seed=N] [--traced] [--reference] [--quick]\n";
    return 2;
  }
  config.seed = *seed;
  config.reference = *reference;
  config.traced = *traced;
  config.quick = *quick;

  auto result = perfbench::RunWorkload(config);
  if (!result.ok()) {
    std::cerr << "perfbench: " << result.status() << "\n";
    return 1;
  }
  std::cout << *result << "\n";
  return 0;
}
