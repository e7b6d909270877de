// One benchmark trial: builds an Aurora cluster, runs one workload's window
// and prints the trial's results as one JSON object on stdout. run.py runs
// trials and turns them into the benchmark's result.
//
//   perfbench_trial --workload write_cached --seed 7 [--trace] [--spans F]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/metrics.h"
#include "trial.h"

namespace {

std::string Object(const perfbench::Metrics& m) {
  std::string out = "{";
  for (const auto& [name, value] : m) {
    if (out.size() > 1) out += ",";
    char num[64];
    snprintf(num, sizeof(num), "%.17g", value);
    out += "\"" + name + "\":" + num;
  }
  return out + "}";
}

int Usage() {
  fprintf(stderr,
          "usage: perfbench_trial --workload NAME --seed N [--trace] "
          "[--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans;
  uint64_t seed = 0;
  bool have_seed = false, trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--trace") {
      trace = true;
    } else if (i + 1 < argc && arg == "--workload") {
      workload = argv[++i];
    } else if (i + 1 < argc && arg == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (i + 1 < argc && arg == "--spans") {
      spans = argv[++i];
    } else {
      return Usage();
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr || !have_seed) return Usage();

  perfbench::TrialResult r = perfbench::RunTrial(*spec, seed, trace, spans);
  perfbench::Metrics samples;
  for (const auto& [name, n] : r.samples) samples[name] = static_cast<double>(n);
  printf(
      "{\"ok\":%s,\"error\":\"%s\",\"attempted\":%llu,\"failed\":%llu,"
      "\"virt\":%s,\"samples\":%s,\"wall\":%s,\"layer_virt\":%s,"
      "\"layer_wall\":%s,\"counts\":%s}\n",
      r.ok ? "true" : "false", aurora::json::Escape(r.error).c_str(),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), Object(r.virt).c_str(),
      Object(samples).c_str(), Object(r.wall).c_str(),
      Object(r.layer_virt).c_str(), Object(r.layer_wall).c_str(),
      Object(r.counts).c_str());
  return r.ok ? 0 : 1;
}
