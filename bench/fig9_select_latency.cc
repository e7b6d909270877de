// Figure 9: "SELECT latency (P50 vs P95)" — the education-technology
// customer's SELECT latencies before (MySQL) and after (Aurora) migration.
// Before: P95 of 40-80 ms towering over a ~1 ms P50 (outlier-dominated);
// after: P95 collapses toward the P50.

#include <cstdio>

#include "bench/bench_util.h"

namespace aurora::bench {
namespace {

void Run() {
  PrintHeader("Figure 9: SELECT latency P50 vs P95 (migration)",
              "Figure 9 (§6.2.2)");

  // Matched, unsaturated load on both systems (a handful of connections)
  // so latency is compared at equal throughput; a working set far larger
  // than the cache makes every SELECT a storage fetch; the 20% writes are
  // what create MySQL's read tail — page flushing and double-writes queue
  // on the same EBS volume the reads need, while Aurora's log-only writes
  // land on a separate fleet. Key choice is Zipf-skewed (production SELECT
  // traffic concentrates on hot rows) with a buffer cache far smaller than
  // the touched set, so hot pages churn through the cache and the storage
  // fleet serves repeat reconstructions at steady state.
  SysbenchOptions sopts;
  sopts.mode = SysbenchOptions::Mode::kOltp;
  sopts.point_selects = 8;
  sopts.index_updates = 2;
  sopts.connections = 8;
  sopts.zipf_theta = 0.9;
  sopts.duration = Seconds(3);
  sopts.warmup = Millis(500);
  const uint64_t rows = RowsForGb(40);

  MysqlClusterOptions mopts = StandardMysqlOptions();
  mopts.mysql.engine.buffer_pool_pages = 400;
  MysqlRun before = RunMysqlSysbench(mopts, sopts, rows);
  const Histogram& bm = before.cluster->db()->stats().read_latency_us;

  ClusterOptions aopts = StandardAuroraOptions();
  aopts.engine.buffer_pool_pages = 400;
  AuroraRun after = RunAuroraSysbench(aopts, sopts, rows);
  const Histogram& am = after.cluster->writer()->stats().read_latency_us;

  printf("%-22s %12s %12s %12s\n", "Configuration", "P50 (ms)", "P95 (ms)",
         "P95/P50");
  printf("%-22s %12.2f %12.2f %11.1fx\n", "MySQL (before)",
         ToMillis(bm.P50()), ToMillis(bm.P95()),
         bm.P50() ? static_cast<double>(bm.P95()) / bm.P50() : 0);
  printf("%-22s %12.2f %12.2f %11.1fx\n", "Aurora (after)",
         ToMillis(am.P50()), ToMillis(am.P95()),
         am.P50() ? static_cast<double>(am.P95()) / am.P50() : 0);
  BenchReport report("fig9_select_latency");
  report.Result("mysql.read_p50_ms", ToMillis(bm.P50()));
  report.Result("mysql.read_p95_ms", ToMillis(bm.P95()));
  report.Result("aurora.read_p50_ms", ToMillis(am.P50()));
  report.Result("aurora.read_p95_ms", ToMillis(am.P95()));
  report.ResultHistogram("mysql.read_latency_us", &bm);
  report.ResultHistogram("aurora.read_latency_us", &am);
  // The full cluster dump carries the write-path stage tracing
  // (engine.writer.trace.*) that decomposes where Aurora's latency goes.
  report.AttachCluster("aurora", after.cluster.get());
  report.Write();

  printf("\nNote: this figure reproduces PARTIALLY (see EXPERIMENTS.md).\n");
  printf("The customer's 40-80x read tail came from multi-tenant EBS\n");
  printf("outliers under production load, which the single-tenant EBS\n");
  printf("model here lacks; at matched load both systems show comparable\n");
  printf("read-tail ratios. The write-path tail story (Figure 10)\n");
  printf("reproduces strongly.\n");
}

}  // namespace
}  // namespace aurora::bench

int main() {
  aurora::bench::Run();
  return 0;
}
