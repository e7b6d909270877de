// Ablation: write-quorum width vs commit latency and availability.
// The 4/6 quorum is Aurora's outlier-absorber (§1, §3.1): commits wait for
// the 4th-fastest of six replicas, so one slow or dead node is invisible.
// This sweep compares 6/6 (synchronous all-replica, like chain/mirror
// schemes), 4/6 (Aurora) and 2/3 under a slow storage node.

#include <cstdio>

#include "bench/bench_util.h"

namespace aurora::bench {
namespace {

void RunOne(const char* label, const char* key, QuorumConfig q,
            double slow_factor, BenchReport* report) {
  ClusterOptions copts = StandardAuroraOptions();
  copts.engine.quorum = q;
  AuroraCluster cluster(copts);
  if (!cluster.BootstrapSync().ok()) return;
  SyntheticCatalog catalog;
  auto layout =
      AttachSyntheticTable(&cluster, &catalog, "t", RowsForGb(1), kRowBytes);
  if (!layout.ok()) return;
  if (slow_factor > 1) {
    sim::NodeId victim = cluster.control_plane()->membership(0).nodes[0];
    cluster.failure_injector()->SlowNode(victim, slow_factor, 0);
  }
  AuroraClient client(cluster.writer());
  SysbenchOptions sopts;
  sopts.mode = SysbenchOptions::Mode::kWriteOnly;
  sopts.connections = 16;
  sopts.duration = Seconds(2);
  sopts.warmup = Millis(300);
  SysbenchDriver driver(cluster.loop(), &client, (*layout)->anchor(), sopts);
  bool done = false;
  driver.Run([&] { done = true; });
  cluster.RunUntil([&] { return done; }, Minutes(30));
  const Histogram& commit =
      cluster.writer()->stats().commit_latency_us;
  printf("%-26s %10.0f %12.2f %12.2f %10llu\n", label,
         driver.results().writes_per_sec(), ToMillis(commit.P50()),
         ToMillis(commit.P99()),
         static_cast<unsigned long long>(
             cluster.writer()->stats().batch_retries));
  std::string prefix(key);
  report->Result(prefix + ".writes_per_sec",
                 driver.results().writes_per_sec());
  report->Result(prefix + ".commit_p50_ms", ToMillis(commit.P50()));
  report->Result(prefix + ".commit_p99_ms", ToMillis(commit.P99()));
  report->Result(prefix + ".batch_retries",
                 static_cast<double>(cluster.writer()->stats().batch_retries));
  // The cluster dies with this frame, so attach a materialized snapshot
  // rather than the registry.
  report->AttachSnapshot(prefix + ".cluster", cluster.metrics()->Snapshot());
}

void Run() {
  PrintHeader("Ablation: quorum width under a slow storage node",
              "§2.1/§3.1 (the 4/6 design point)");
  printf("%-26s %10s %12s %12s %10s\n", "config", "writes/s",
         "commit p50", "commit p99", "retries");
  BenchReport report("ablation_quorum");
  RunOne("4/6 (Aurora), healthy", "aurora_healthy", QuorumConfig::Aurora(), 1,
         &report);
  RunOne("4/6 (Aurora), 1 slow 20x", "aurora_slow20x", QuorumConfig::Aurora(),
         20, &report);
  RunOne("6/6 (all-replica), healthy", "allreplica_healthy",
         QuorumConfig{6, 6, 1}, 1, &report);
  RunOne("6/6 (all-replica), slow", "allreplica_slow20x",
         QuorumConfig{6, 6, 1}, 20, &report);
  printf("\nExpected shape: 4/6 is insensitive to the slow node; 6/6\n");
  printf("inherits the slowest replica's latency into every commit.\n");
  report.Write();
}

}  // namespace
}  // namespace aurora::bench

int main() {
  aurora::bench::Run();
  return 0;
}
