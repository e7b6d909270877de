#ifndef AURORA_BENCH_BENCH_UTIL_H_
#define AURORA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "harness/bulk_load.h"
#include "harness/scale.h"
#include "harness/client_api.h"
#include "harness/cluster.h"
#include "harness/mysql_cluster.h"
#include "harness/synthetic_table.h"
#include "workload/sysbench.h"

namespace aurora::bench {

// ---------------------------------------------------------------------------
// Scale constants (see DESIGN.md §5 and EXPERIMENTS.md).
//
// The paper's testbed is r3.8xlarge instances against multi-terabyte
// volumes over 30-minute runs; the simulation runs the same protocols at a
// documented reduction so whole-cluster experiments finish in seconds of
// wall-clock. Shapes (ratios, crossovers) are the reproduction target, not
// absolute numbers.
// ---------------------------------------------------------------------------

// Scale constants live in harness/scale.h (shared with tests and docs).
using scale::kCachePagesFor170Gb;
using scale::kPageSize;
using scale::kRowBytes;
using scale::kRowsPerGb;
/// Default measured window (the paper uses 30-minute runs).
constexpr SimDuration kMeasure = Seconds(5);
constexpr SimDuration kWarmup = Seconds(1);

using scale::RowsForGb;

inline ClusterOptions StandardAuroraOptions() {
  ClusterOptions o;
  o.engine.page_size = kPageSize;
  o.engine.pages_per_pg = 2048;
  o.engine.buffer_pool_pages = kCachePagesFor170Gb;
  o.storage_nodes_per_az = 4;
  return o;
}

inline MysqlClusterOptions StandardMysqlOptions() {
  MysqlClusterOptions o;
  o.mysql.engine.page_size = kPageSize;
  o.mysql.engine.buffer_pool_pages = kCachePagesFor170Gb;
  return o;
}

/// A complete Aurora benchmark run: the cluster stays alive so callers can
/// inspect stats after the workload finishes.
struct AuroraRun {
  std::unique_ptr<AuroraCluster> cluster;
  std::unique_ptr<SyntheticCatalog> catalog;
  PageId table = kInvalidPage;
  WorkloadResults results;
  /// Per-interval registry diffs (when `window_interval` > 0): a sim-time
  /// series of every cluster metric across the measured window.
  std::vector<MetricsSnapshot> windows;
  bool ok = false;
};

inline AuroraRun RunAuroraSysbench(ClusterOptions copts, SysbenchOptions sopts,
                                   uint64_t rows,
                                   SimDuration window_interval = 0) {
  AuroraRun run;
  run.cluster = std::make_unique<AuroraCluster>(copts);
  run.catalog = std::make_unique<SyntheticCatalog>();
  Status s = run.cluster->BootstrapSync();
  if (!s.ok()) {
    fprintf(stderr, "bootstrap failed: %s\n", s.ToString().c_str());
    return run;
  }
  auto layout = AttachSyntheticTable(run.cluster.get(), run.catalog.get(),
                                     "sbtest", rows, kRowBytes);
  if (!layout.ok()) {
    fprintf(stderr, "attach failed: %s\n", layout.status().ToString().c_str());
    return run;
  }
  run.table = (*layout)->anchor();
  sopts.table_rows = rows;
  sopts.value_size = kRowBytes;
  AuroraClient client(run.cluster->writer());
  SysbenchDriver driver(run.cluster->loop(), &client, run.table, sopts);
  if (window_interval > 0) {
    driver.EnableIntervalMetrics(run.cluster->metrics(), window_interval);
  }
  bool done = false;
  driver.Run([&] { done = true; });
  run.cluster->RunUntil([&] { return done; }, Minutes(60));
  run.results = driver.results();
  run.windows = driver.metric_windows();
  run.ok = done;
  return run;
}

struct MysqlRun {
  std::unique_ptr<MysqlCluster> cluster;
  std::unique_ptr<SyntheticCatalog> catalog;
  PageId table = kInvalidPage;
  WorkloadResults results;
  std::vector<MetricsSnapshot> windows;
  bool ok = false;
};

inline MysqlRun RunMysqlSysbench(MysqlClusterOptions copts,
                                 SysbenchOptions sopts, uint64_t rows,
                                 SimDuration window_interval = 0) {
  MysqlRun run;
  run.cluster = std::make_unique<MysqlCluster>(copts);
  run.catalog = std::make_unique<SyntheticCatalog>();
  Status s = run.cluster->BootstrapSync();
  if (!s.ok()) {
    fprintf(stderr, "bootstrap failed: %s\n", s.ToString().c_str());
    return run;
  }
  auto layout = AttachSyntheticTableMysql(run.cluster.get(),
                                          run.catalog.get(), "sbtest", rows,
                                          kRowBytes);
  if (!layout.ok()) {
    fprintf(stderr, "attach failed: %s\n", layout.status().ToString().c_str());
    return run;
  }
  run.table = (*layout)->anchor();
  sopts.table_rows = rows;
  sopts.value_size = kRowBytes;
  MysqlClient client(run.cluster->db());
  SysbenchDriver driver(run.cluster->loop(), &client, run.table, sopts);
  if (window_interval > 0) {
    driver.EnableIntervalMetrics(run.cluster->metrics(), window_interval);
  }
  bool done = false;
  driver.Run([&] { done = true; });
  run.cluster->RunUntil([&] { return done; }, Minutes(120));
  run.results = driver.results();
  run.windows = driver.metric_windows();
  run.ok = done;
  return run;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  printf("==============================================================\n");
  printf("%s\n", title);
  printf("  (reproduces %s; simulated scale — compare shapes, not\n",
         paper_ref);
  printf("   absolute values; see EXPERIMENTS.md)\n");
  printf("==============================================================\n");
}

// ---------------------------------------------------------------------------
// Machine-readable bench output (BENCH_<name>.json)
// ---------------------------------------------------------------------------

/// Collects one benchmark's headline numbers and whole-cluster metric dumps
/// and emits them as a single JSON document through the metrics layer.
///
///   BenchReport report("table1_network_ios");
///   report.Result("aurora.ios_per_txn", 0.95);
///   report.AttachCluster("aurora", run.cluster.get());
///   report.Write();   // -> BENCH_table1_network_ios.json
///
/// Output directory: $AURORA_BENCH_OUT if set, else the working directory.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Records one headline scalar under "results.<key>".
  void Result(const std::string& key, double value) {
    owned_.push_back(value);
    double* p = &owned_.back();
    registry_.RegisterGauge("results." + key, [p] { return *p; });
  }

  /// Records a latency histogram under "results.<key>". `h` must stay
  /// alive until Write().
  void ResultHistogram(const std::string& key, const Histogram* h) {
    registry_.RegisterHistogram("results." + key, h);
  }

  /// Nests a full snapshot of the cluster's registry under `prefix` at
  /// Write() time. The cluster must stay alive until Write().
  void AttachCluster(const std::string& prefix, AuroraCluster* cluster) {
    attached_.emplace_back(prefix, cluster->metrics());
  }
  void AttachRegistry(const std::string& prefix, const MetricsRegistry* reg) {
    attached_.emplace_back(prefix, reg);
  }

  /// Nests an already-materialized snapshot under `prefix` (interval
  /// windows, diffs against a baseline — anything no longer backed by a
  /// live registry).
  void AttachSnapshot(const std::string& prefix, MetricsSnapshot snap) {
    snapshots_.emplace_back(prefix, std::move(snap));
  }

  /// Nests a sysbench interval-window time series as
  /// "<prefix>.w<index>.<metric>" (windows are ordered by sim-time).
  void AttachWindows(const std::string& prefix,
                     const std::vector<MetricsSnapshot>& windows) {
    for (size_t i = 0; i < windows.size(); ++i) {
      AttachSnapshot(prefix + ".w" + std::to_string(i), windows[i]);
    }
  }

  MetricsRegistry* registry() { return &registry_; }

  /// Builds the merged snapshot (results + attached registries).
  MetricsSnapshot Snapshot() const {
    MetricsSnapshot snap = registry_.Snapshot();
    for (const auto& [prefix, reg] : attached_) {
      snap.MergeWithPrefix(prefix, reg->Snapshot());
    }
    for (const auto& [prefix, s] : snapshots_) {
      snap.MergeWithPrefix(prefix, s);
    }
    return snap;
  }

  /// Writes BENCH_<name>.json; returns the path ("" on failure).
  std::string Write() const {
    const char* dir = getenv("AURORA_BENCH_OUT");
    std::string path = (dir != nullptr && dir[0] != '\0')
                           ? std::string(dir) + "/BENCH_" + name_ + ".json"
                           : "BENCH_" + name_ + ".json";
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
      return "";
    }
    std::string json = Snapshot().ToJson();
    fwrite(json.data(), 1, json.size(), f);
    fputc('\n', f);
    fclose(f);
    printf("\n[metrics] wrote %s\n", path.c_str());
    return path;
  }

 private:
  std::string name_;
  MetricsRegistry registry_;
  std::deque<double> owned_;  // deque: stable addresses for gauge readers
  std::vector<std::pair<std::string, const MetricsRegistry*>> attached_;
  std::vector<std::pair<std::string, MetricsSnapshot>> snapshots_;
};

}  // namespace aurora::bench

#endif  // AURORA_BENCH_BENCH_UTIL_H_
