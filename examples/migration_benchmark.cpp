// Migration benchmark: the §6.2 customer story in miniature. Runs the same
// OLTP workload against the mirrored-MySQL baseline (Figure 2) and an
// Aurora cluster (Figure 3), then prints the before/after comparison a
// customer would see: throughput, mean response time, and the P95/P50 tail
// ratio.
//
//   ./build/examples/migration_benchmark

#include <cstdio>

#include "harness/bulk_load.h"
#include "harness/client_api.h"
#include "harness/cluster.h"
#include "harness/mysql_cluster.h"
#include "workload/sysbench.h"

using namespace aurora;  // examples only

namespace {

struct Outcome {
  double tps = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
};

Outcome Summarize(const WorkloadResults& r) {
  Outcome o;
  o.tps = r.tps();
  o.mean_ms = ToMillis(static_cast<SimDuration>(r.txn_latency_us.mean()));
  o.p50_ms = ToMillis(r.txn_latency_us.P50());
  o.p95_ms = ToMillis(r.txn_latency_us.P95());
  return o;
}

SysbenchOptions WebWorkload() {
  SysbenchOptions o;
  o.mode = SysbenchOptions::Mode::kOltp;
  o.point_selects = 6;
  o.index_updates = 2;
  o.connections = 24;
  o.table_rows = 100000;
  o.duration = Seconds(3);
  o.warmup = Millis(300);
  return o;
}

}  // namespace

int main() {
  const uint64_t rows = 100000;

  // --- Before: mirrored MySQL on EBS -------------------------------------
  MysqlClusterOptions mopts;
  mopts.mysql.engine.page_size = 4096;
  mopts.mysql.engine.buffer_pool_pages = 8192;
  MysqlCluster mysql(mopts);
  (void)mysql.BootstrapSync();
  SyntheticCatalog mysql_catalog;
  auto mysql_table =
      AttachSyntheticTableMysql(&mysql, &mysql_catalog, "app", rows, 100);
  MysqlClient mysql_client(mysql.db());
  SysbenchDriver before(mysql.loop(), &mysql_client, (*mysql_table)->anchor(),
                        WebWorkload());
  bool before_done = false;
  before.Run([&] { before_done = true; });
  mysql.RunUntil([&] { return before_done; }, Minutes(30));

  // --- After: Aurora -------------------------------------------------------
  ClusterOptions aopts;
  aopts.engine.page_size = 4096;
  aopts.engine.buffer_pool_pages = 8192;
  AuroraCluster aurora(aopts);
  (void)aurora.BootstrapSync();
  SyntheticCatalog aurora_catalog;
  auto aurora_table =
      AttachSyntheticTable(&aurora, &aurora_catalog, "app", rows, 100);
  AuroraClient aurora_client(aurora.writer());
  SysbenchDriver after(aurora.loop(), &aurora_client,
                       (*aurora_table)->anchor(), WebWorkload());
  bool after_done = false;
  after.Run([&] { after_done = true; });
  aurora.RunUntil([&] { return after_done; }, Minutes(30));

  Outcome b = Summarize(before.results());
  Outcome a = Summarize(after.results());
  printf("Web application migration (Figure 8/9/10 in miniature)\n\n");
  printf("%-18s %12s %12s %12s %12s\n", "", "txns/s", "mean ms", "p50 ms",
         "p95 ms");
  printf("%-18s %12.0f %12.2f %12.2f %12.2f\n", "MySQL (before)", b.tps,
         b.mean_ms, b.p50_ms, b.p95_ms);
  printf("%-18s %12.0f %12.2f %12.2f %12.2f\n", "Aurora (after)", a.tps,
         a.mean_ms, a.p50_ms, a.p95_ms);
  printf("\nresponse time improvement: %.1fx; tail (p95/p50) %.1fx -> %.1fx\n",
         a.mean_ms > 0 ? b.mean_ms / a.mean_ms : 0,
         b.p50_ms > 0 ? b.p95_ms / b.p50_ms : 0,
         a.p50_ms > 0 ? a.p95_ms / a.p50_ms : 0);
  return 0;
}
