// Micro-benchmarks (google-benchmark) for the simulator-kernel hot path:
// event scheduling/dispatch, cancellation, and network message delivery.
// Every experiment in this reproduction is bottlenecked on these three
// primitives (each simulated second executes hundreds of thousands of
// events), so regressions here slow the whole suite down — the perf-smoke
// CI job runs this bench and archives BENCH_micro_sim.json per commit.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace aurora::sim {
namespace {

/// Schedule-then-drain throughput: the steady-state cost of one event's
/// full lifecycle (allocate id, enqueue, dequeue, dispatch). Batches of
/// `range(0)` events with randomized delays model the mixed-horizon queues
/// (NIC serialization, disk completions, background timers) of a cluster
/// run.
void BM_EventLoopScheduleRun(benchmark::State& state) {
  EventLoop loop;
  Random rng(42);
  const int batch = static_cast<int>(state.range(0));
  uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      loop.Schedule(rng.Uniform(1000), [&sink] { ++sink; });
    }
    loop.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(64)->Arg(4096);

/// Timer-heavy usage: schedule far-out events and cancel most of them
/// before they fire — the retry/timeout pattern of the write path (every
/// batch arms a retry timer that quorum arrival cancels) and the crash
/// paths (Crash() cancels all per-component maintenance timers).
void BM_EventLoopCancel(benchmark::State& state) {
  EventLoop loop;
  const int batch = 1024;
  std::vector<EventId> ids(batch);
  uint64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      ids[i] = loop.Schedule(1000000, [&fired] { ++fired; });
    }
    // Cancel 15/16 of them (quorums normally arrive before timeouts).
    for (int i = 0; i < batch; ++i) {
      if (i % 16 != 0) loop.Cancel(ids[i]);
    }
    loop.Run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventLoopCancel);

/// End-to-end message delivery: Send through a 3-AZ fabric, including NIC
/// serialization, jittered propagation, delivery scheduling and handler
/// dispatch. `range(0)` selects plain vs shared-payload fan-out sends of a
/// write-batch-sized payload.
void BM_NetworkSendDeliver(benchmark::State& state) {
  EventLoop loop;
  Topology topo(3);
  Network net(&loop, &topo, FabricOptions{}, Random(7));
  const NodeId src = topo.AddNode(0, "src");
  std::vector<NodeId> dst;
  for (int az = 0; az < 3; ++az) {
    dst.push_back(topo.AddNode(static_cast<AzId>(az), "d" + std::to_string(az)));
    dst.push_back(topo.AddNode(static_cast<AzId>(az), "e" + std::to_string(az)));
  }
  uint64_t received = 0;
  for (NodeId n : dst) {
    net.Register(n, [&received](const Message&) { ++received; });
  }
  const bool shared = state.range(0) != 0;
  const std::string body_bytes(1024, 'b');  // ~ one redo batch
  for (auto _ : state) {
    if (shared) {
      auto body = std::make_shared<const std::string>(body_bytes);
      for (NodeId n : dst) net.Send(src, n, 1, "hdr", body);
    } else {
      for (NodeId n : dst) net.Send(src, n, 1, std::string(body_bytes));
    }
    loop.Run();
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(dst.size()));
}
BENCHMARK(BM_NetworkSendDeliver)->Arg(0)->Arg(1);

}  // namespace
}  // namespace aurora::sim

namespace {

/// Console reporter that also captures per-benchmark timings and item
/// rates so they can be emitted as BENCH_micro_sim.json.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double real_time_ns;
    double items_per_second;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      double ips = 0;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) ips = it->second.value;
      captured.push_back(
          {run.benchmark_name(), run.GetAdjustedRealTime(), ips});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Captured> captured;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  aurora::bench::BenchReport report("micro_sim");
  double schedule_run_ips = 0;
  for (const auto& c : reporter.captured) {
    report.Result(c.name + ".real_time_ns", c.real_time_ns);
    if (c.items_per_second > 0) {
      report.Result(c.name + ".items_per_second", c.items_per_second);
    }
    if (c.name == "BM_EventLoopScheduleRun/4096") {
      schedule_run_ips = c.items_per_second;
    }
  }
  report.Write();
  // One grep-able line for the CI job log.
  printf("micro_sim summary: events/sec = %.0f (BM_EventLoopScheduleRun/4096)\n",
         schedule_run_ips);
  return 0;
}
