// Ablation: the LSN Allocation Limit (§4.2.1). The LAL bounds how far the
// writer may run ahead of durability; too small and it throttles normal
// operation, too large and a storage slowdown lets an unbounded backlog
// build (latency balloons, recovery inventory grows). Sweep the LAL while
// the storage fleet is degraded.

#include <cstdio>

#include "bench/bench_util.h"

namespace aurora::bench {
namespace {

void Run() {
  PrintHeader("Ablation: LSN Allocation Limit back-pressure",
              "§4.2.1 (LAL, production value 10M)");
  printf("%-14s %10s %14s %14s %12s\n", "LAL (bytes)", "writes/s",
         "commit p99 ms", "stalls", "max unacked");
  BenchReport report("ablation_lal");
  for (uint64_t lal : {uint64_t{20000}, uint64_t{200000},
                       uint64_t{10000000}}) {
    ClusterOptions copts = StandardAuroraOptions();
    copts.engine.lal = lal;
    // Degrade the whole fleet's disks so durability lags the workload.
    copts.storage.disk.max_iops = 800;
    AuroraCluster cluster(copts);
    if (!cluster.BootstrapSync().ok()) continue;
    SyntheticCatalog catalog;
    auto layout = AttachSyntheticTable(&cluster, &catalog, "t", RowsForGb(1),
                                       kRowBytes);
    if (!layout.ok()) continue;
    AuroraClient client(cluster.writer());
    SysbenchOptions sopts;
    sopts.mode = SysbenchOptions::Mode::kWriteOnly;
    sopts.connections = 32;
    sopts.duration = Seconds(2);
    sopts.warmup = Millis(300);
    SysbenchDriver driver(cluster.loop(), &client, (*layout)->anchor(), sopts);
    // Interval windows on the production-LAL point: the backlog build-up is
    // a time-series story, not a single number.
    if (lal == 10000000) {
      driver.EnableIntervalMetrics(cluster.metrics(), Millis(250));
    }
    bool done = false;
    driver.Run([&] { done = true; });
    cluster.RunUntil([&] { return done; }, Minutes(30));
    const auto& st = cluster.writer()->stats();
    const uint64_t unacked = cluster.writer()->next_lsn() -
                             cluster.writer()->vdl();
    printf("%-14llu %10.0f %14.2f %14llu %12llu\n",
           static_cast<unsigned long long>(lal),
           driver.results().writes_per_sec(),
           ToMillis(st.commit_latency_us.P99()),
           static_cast<unsigned long long>(st.backpressure_stalls),
           static_cast<unsigned long long>(unacked));
    std::string prefix = "lal" + std::to_string(lal);
    report.Result(prefix + ".writes_per_sec",
                  driver.results().writes_per_sec());
    report.Result(prefix + ".commit_p99_ms",
                  ToMillis(st.commit_latency_us.P99()));
    report.Result(prefix + ".backpressure_stalls",
                  static_cast<double>(st.backpressure_stalls));
    report.Result(prefix + ".unacked_bytes", static_cast<double>(unacked));
    report.AttachSnapshot(prefix + ".cluster",
                          cluster.metrics()->Snapshot());
    if (!driver.metric_windows().empty()) {
      report.AttachWindows(prefix + ".windows", driver.metric_windows());
    }
  }
  printf("\nExpected shape: the small LAL keeps the unacknowledged window\n");
  printf("bounded and commit latency low (statements defer instead of\n");
  printf("piling onto the degraded fleet — and the released bursts batch\n");
  printf("better); without effective back-pressure the backlog and the\n");
  printf("commit tail grow by orders of magnitude.\n");
  report.Write();
}

}  // namespace
}  // namespace aurora::bench

int main() {
  aurora::bench::Run();
  return 0;
}
