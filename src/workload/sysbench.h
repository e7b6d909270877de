#ifndef AURORA_WORKLOAD_SYSBENCH_H_
#define AURORA_WORKLOAD_SYSBENCH_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/random.h"
#include "harness/client_api.h"
#include "harness/synthetic_table.h"
#include "sim/event_loop.h"

namespace aurora {

/// SysBench-style OLTP driver (§6.1 uses SysBench read-only, write-only and
/// OLTP): N closed-loop connections (zero think time) issuing point selects
/// and index updates against one table.
struct SysbenchOptions {
  enum class Mode { kReadOnly, kWriteOnly, kOltp };
  Mode mode = Mode::kOltp;
  int connections = 50;
  uint64_t table_rows = 100000;
  size_t value_size = 100;
  /// 0 = uniform; >0 = Zipf-skewed key choice.
  double zipf_theta = 0.0;
  /// Statement mix per transaction (classic sysbench OLTP: 10 point
  /// selects + 4 index updates; write-only: updates only; read-only:
  /// selects only).
  int point_selects = 10;
  int index_updates = 4;
  SimDuration duration = Seconds(10);
  SimDuration warmup = Seconds(1);
  uint64_t seed = 1;
};

struct WorkloadResults {
  uint64_t txns = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t errors = 0;
  SimDuration measured = 0;
  Histogram txn_latency_us;

  double tps() const {
    return measured ? static_cast<double>(txns) / ToSeconds(measured) : 0;
  }
  double reads_per_sec() const {
    return measured ? static_cast<double>(reads) / ToSeconds(measured) : 0;
  }
  double writes_per_sec() const {
    return measured ? static_cast<double>(writes) / ToSeconds(measured) : 0;
  }
};

class SysbenchDriver {
 public:
  /// `table` is the anchor of a table laid out with SyntheticTableLayout
  /// key/value conventions (rows keyed KeyOf(0..table_rows)).
  SysbenchDriver(sim::EventLoop* loop, ClientApi* client, PageId table,
                 SysbenchOptions options);

  SysbenchDriver(const SysbenchDriver&) = delete;
  SysbenchDriver& operator=(const SysbenchDriver&) = delete;

  /// Launches the connections; `done` fires when the measured window ends
  /// and every in-flight transaction has drained.
  void Run(std::function<void()> done);

  const WorkloadResults& results() const { return results_; }

  /// Enables interval-windowed metrics: during the measured window the
  /// driver snapshots `registry` every `interval` of sim-time and stores
  /// the Diff against the previous snapshot, so counters become
  /// per-interval deltas (a time series for the bench JSON). Call before
  /// Run(); `registry` must outlive the run.
  void EnableIntervalMetrics(const MetricsRegistry* registry,
                             SimDuration interval);
  /// Per-interval windows, oldest first; the final window covers whatever
  /// partial interval remained when measurement stopped.
  const std::vector<MetricsSnapshot>& metric_windows() const {
    return metric_windows_;
  }

 private:
  struct Connection {
    Random rng;
    bool busy = false;
    explicit Connection(uint64_t seed) : rng(seed) {}
  };

  void StartTxn(int conn);
  void NextStatement(int conn, TxnId txn, int reads_left, int writes_left,
                     SimTime started);
  void FinishTxn(int conn, TxnId txn, SimTime started, bool failed);
  uint64_t PickRow(Connection* c);
  void MaybeFinish();
  void MetricsTick();

  sim::EventLoop* loop_;
  ClientApi* client_;
  PageId table_;
  SysbenchOptions options_;
  Zipf zipf_;
  std::vector<std::unique_ptr<Connection>> connections_;
  WorkloadResults results_;
  bool measuring_ = false;
  bool stopping_ = false;
  int in_flight_ = 0;
  SimTime measure_start_ = 0;
  std::function<void()> done_;
  const MetricsRegistry* metrics_registry_ = nullptr;
  SimDuration metrics_interval_ = 0;
  bool windows_active_ = false;
  MetricsSnapshot metrics_base_;
  std::vector<MetricsSnapshot> metric_windows_;
};

}  // namespace aurora

#endif  // AURORA_WORKLOAD_SYSBENCH_H_
