#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include "bench_client.h"
#include "common/metrics.h"
#include "harness/cluster.h"
#include "trial.h"

namespace perfbench {

/// What a traced trial records at the edges of the measured window: the
/// cluster's MetricsRegistry snapshot, the writer's CPU busy time, and the
/// largest storage disk backlog sampled while the window is open.
class WindowCapture {
 public:
  /// Also resets the writer's stage histograms, so their percentiles cover
  /// the window only.
  void Open(aurora::AuroraCluster* cluster);
  void Close(aurora::AuroraCluster* cluster);
  /// Samples every storage node's disk backlog now and then each
  /// millisecond of virtual time until `*closed`.
  void SampleBacklogUntilClose(aurora::AuroraCluster* cluster,
                               aurora::sim::EventLoop* loop,
                               const bool* closed);

  aurora::MetricsSnapshot open, close;
  aurora::SimTime t_open = 0;
  aurora::SimTime t_close = 0;
  double cpu_busy_open = 0;
  double cpu_busy_close = 0;
  aurora::SimDuration backlog_max = 0;
  /// Events the backlog sampler itself executed in the window.
  uint64_t sampler_events = 0;
  /// Writer stage histograms at window close.
  aurora::HistogramSummary page_fetch, append_to_flush, flush_to_first_ack,
      first_ack_to_quorum;
};

struct LayerInputs {
  aurora::AuroraCluster* cluster;
  const BenchClient* client;
  const WindowCapture* window;
  const aurora::SyntheticTableLayout& layout;
};

/// Per-layer metrics in virtual time (window diffs), plus the window's call
/// counts that the replayed per-call costs are multiplied by.
void VirtualLayerMetrics(const LayerInputs& in, Metrics* out, Metrics* counts);

/// Per-layer wall-clock costs: engine entry calls (from the client
/// decorator), the registry snapshot, and replays of the run's own records
/// and pages through the storage, wire and CRC layers.
void WallLayerMetrics(const LayerInputs& in, Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
