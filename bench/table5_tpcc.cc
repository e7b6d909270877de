// Table 5: "Percona TPC-C Variant (tpmC)" — hot-row contention:
//
//     Conns/Size/WH       Aurora   MySQL 5.6   MySQL 5.7
//     500/10GB/100        73,955     6,093       25,289
//     5000/10GB/100       42,181     1,671        2,592
//     500/100GB/1000      70,663     3,231       11,868
//     5000/100GB/1000     30,221     5,575       13,005
//
// The real lock manager provides the contention; Aurora's advantage is that
// lock hold times exclude synchronous log flushing.

#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "workload/tpcc.h"

namespace aurora::bench {
namespace {

struct Config {
  int connections;
  const char* size;
  const char* size_key;  // lowercase, for metric names
  int warehouses;
};

template <typename Cluster, typename Client>
double RunTpcc(Cluster* cluster, Client* client, const Config& cfg) {
  TpccTables tables;
  const char* names[] = {"warehouse", "district", "customer", "stock",
                         "orders"};
  PageId* anchors[] = {&tables.warehouse, &tables.district, &tables.customer,
                       &tables.stock, &tables.orders};
  for (int i = 0; i < 5; ++i) {
    if (!cluster->CreateTableSync(names[i]).ok()) return -1;
    auto a = cluster->TableAnchorSync(names[i]);
    if (!a.ok()) return -1;
    *anchors[i] = *a;
  }
  TpccOptions topts;
  topts.warehouses = cfg.warehouses;
  topts.connections = cfg.connections;
  topts.customers_per_district = 10;
  topts.stock_items = 200;
  topts.duration = Seconds(3);
  topts.warmup = Millis(500);
  TpccDriver driver(cluster->loop(), client, tables, topts);
  bool loaded = false;
  Status ls = Status::TimedOut("load");
  driver.Load([&](Status s) {
    ls = s;
    loaded = true;
  });
  cluster->RunUntil([&] { return loaded; }, Minutes(60));
  if (!ls.ok()) {
    fprintf(stderr, "tpcc load failed: %s\n", ls.ToString().c_str());
    return -1;
  }
  bool done = false;
  driver.Run([&] { done = true; });
  cluster->RunUntil([&] { return done; }, Minutes(120));
  return driver.results().tpmC();
}

void Run() {
  PrintHeader("Table 5: Percona TPC-C variant (tpmC)", "Table 5 (§6.1.5)");

  // Warehouse counts scaled 1/10 (contention intensity preserved by also
  // scaling connections per warehouse in the 5000-connection rows).
  const Config configs[] = {{500, "10GB", "10gb", 10},
                            {2000, "10GB", "10gb", 10},
                            {500, "100GB", "100gb", 100},
                            {2000, "100GB", "100gb", 100}};

  BenchReport report("table5_tpcc");
  printf("%-22s %12s %12s\n", "Connections/Size/WH", "Aurora", "MySQL 5.6");
  for (const Config& cfg : configs) {
    ClusterOptions aopts = StandardAuroraOptions();
    AuroraCluster aurora(aopts);
    if (!aurora.BootstrapSync().ok()) continue;
    AuroraClient aclient(aurora.writer());
    double a_tpmc = RunTpcc(&aurora, &aclient, cfg);

    MysqlClusterOptions mopts = StandardMysqlOptions();
    mopts.mysql.cpu_contention_per_connection_us = 0.05;
    MysqlCluster mysql(mopts);
    if (!mysql.BootstrapSync().ok()) continue;
    MysqlClient mclient(mysql.db());
    double m_tpmc = RunTpcc(&mysql, &mclient, cfg);

    char label[64];
    snprintf(label, sizeof(label), "%d/%s/%d", cfg.connections, cfg.size,
             cfg.warehouses);
    printf("%-22s %12.0f %12.0f\n", label, a_tpmc, m_tpmc);
    std::string prefix = "c" + std::to_string(cfg.connections) + "_" +
                         cfg.size_key + "_wh" + std::to_string(cfg.warehouses);
    report.Result(prefix + ".aurora_tpmc", a_tpmc);
    report.Result(prefix + ".mysql_tpmc", m_tpmc);
    report.AttachSnapshot(prefix + ".aurora", aurora.metrics()->Snapshot());
    report.AttachSnapshot(prefix + ".mysql", mysql.metrics()->Snapshot());
  }
  printf("\nExpected shape: Aurora 2.3x-16x MySQL everywhere; both drop\n");
  printf("at the highest connection count (lock contention), Aurora less.\n");
  report.Write();
}

}  // namespace
}  // namespace aurora::bench

int main() {
  aurora::bench::Run();
  return 0;
}
