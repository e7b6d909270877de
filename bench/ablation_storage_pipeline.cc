// Ablation: the storage node's background/foreground decoupling (§3.3,
// Figure 4). "In Aurora, background processing has negative correlation
// with foreground processing" — coalescing, GC and scrubbing yield while
// the disk backlog is high. Compare foreground write latency with the
// yield enabled vs background work forced to compete.

#include <cstdio>

#include "bench/bench_util.h"

namespace aurora::bench {
namespace {

void RunOne(const char* label, const char* key, bool yield_enabled,
            BenchReport* report) {
  ClusterOptions copts = StandardAuroraOptions();
  // Constrain storage devices so background work genuinely competes with
  // foreground batch persistence.
  copts.storage.disk.max_iops = 1200;
  copts.storage.disk.bandwidth_bps = 40e6;
  copts.storage.coalesce_interval = Millis(1);
  copts.storage.coalesce_batch = 4096;
  copts.storage.gc_interval = Millis(10);
  if (yield_enabled) {
    copts.storage.background_backlog_limit = Millis(1);
  } else {
    // Never defer: background always runs, even under foreground pressure.
    copts.storage.background_backlog_limit = Minutes(60);
  }
  AuroraCluster cluster(copts);
  if (!cluster.BootstrapSync().ok()) return;
  SyntheticCatalog catalog;
  auto layout =
      AttachSyntheticTable(&cluster, &catalog, "t", RowsForGb(1), kRowBytes);
  if (!layout.ok()) return;
  AuroraClient client(cluster.writer());
  SysbenchOptions sopts;
  sopts.mode = SysbenchOptions::Mode::kWriteOnly;
  sopts.connections = 32;
  sopts.duration = Seconds(2);
  sopts.warmup = Millis(300);
  SysbenchDriver driver(cluster.loop(), &client, (*layout)->anchor(), sopts);
  bool done = false;
  driver.Run([&] { done = true; });
  cluster.RunUntil([&] { return done; }, Minutes(30));

  uint64_t deferrals = 0, coalesced = 0;
  for (size_t i = 0; i < cluster.num_storage_nodes(); ++i) {
    deferrals += cluster.storage_node(i)->stats().background_deferrals;
    coalesced += cluster.storage_node(i)->stats().records_coalesced;
  }
  const Histogram& commit = cluster.writer()->stats().commit_latency_us;
  printf("%-22s %10.0f %12.2f %12.2f %11llu %11llu\n", label,
         driver.results().writes_per_sec(), ToMillis(commit.P50()),
         ToMillis(commit.P99()),
         static_cast<unsigned long long>(deferrals),
         static_cast<unsigned long long>(coalesced));
  std::string prefix(key);
  report->Result(prefix + ".writes_per_sec",
                 driver.results().writes_per_sec());
  report->Result(prefix + ".commit_p50_ms", ToMillis(commit.P50()));
  report->Result(prefix + ".commit_p99_ms", ToMillis(commit.P99()));
  report->Result(prefix + ".background_deferrals",
                 static_cast<double>(deferrals));
  report->Result(prefix + ".records_coalesced",
                 static_cast<double>(coalesced));
  report->AttachSnapshot(prefix + ".cluster", cluster.metrics()->Snapshot());
}

void Run() {
  PrintHeader(
      "Ablation: background work yields to foreground (storage pipeline)",
      "§3.3 / Figure 4");
  printf("%-22s %10s %12s %12s %11s %11s\n", "config", "writes/s",
         "commit p50", "commit p99", "deferrals", "coalesced");
  BenchReport report("ablation_storage_pipeline");
  RunOne("yield (Aurora)", "yield", true, &report);
  RunOne("always-run (naive)", "always_run", false, &report);
  printf("\nExpected shape: with the yield, foreground commit tail is\n");
  printf("tighter; the naive node burns disk on coalescing while the\n");
  printf("foreground queue builds (the positive-correlation trap of\n");
  printf("traditional checkpointing).\n");
  report.Write();
}

}  // namespace
}  // namespace aurora::bench

int main() {
  aurora::bench::Run();
  return 0;
}
