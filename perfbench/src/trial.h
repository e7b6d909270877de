#ifndef PERFBENCH_TRIAL_H_
#define PERFBENCH_TRIAL_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/units.h"
#include "workload/sysbench.h"

namespace perfbench {

/// One benchmark workload. NOTES.md says why each exists and what it
/// stresses.
struct WorkloadSpec {
  std::string name;
  aurora::SysbenchOptions::Mode mode;
  int point_selects;
  int index_updates;
  double zipf_theta;
  uint64_t rows;
  size_t buffer_pool_pages;
  int connections;
  int replicas;
  aurora::SimDuration warmup;
  aurora::SimDuration window;
  /// Reads must return the synthetic table's contents (nothing writes).
  bool reads_match_layout;
};

/// Null if `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

using Metrics = std::map<std::string, double>;

struct TrialResult {
  bool ok = true;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Virtual-time end-to-end metrics: a pure function of (workload, seed).
  Metrics virt;
  /// Sample count behind each virtual percentile, by metric family.
  std::map<std::string, uint64_t> samples;
  /// Wall-clock end-to-end metrics of this process.
  Metrics wall;
  /// Traced trials only: per-layer metrics in virtual time (repeatable),
  /// per-call wall costs, and the run's call counts that the costs multiply.
  Metrics layer_virt;
  Metrics layer_wall;
  Metrics counts;
};

/// Builds a cluster, warms it up, measures one window of `spec`, then
/// crashes and recovers the writer and checks every acknowledged write.
/// `trace` adds spans, window snapshots and the per-layer replays; spans
/// are written to `spans_path` when it is not empty.
TrialResult RunTrial(const WorkloadSpec& spec, uint64_t seed, bool trace,
                     const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_TRIAL_H_
