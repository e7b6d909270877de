// Table 3: "SysBench OLTP (writes/sec)" vs connection count:
//
//     Connections   Amazon Aurora   MySQL
//     50                  40,000    10,000
//     500                 71,000    21,000
//     5,000              110,000    13,000
//
// Aurora keeps scaling because commits are asynchronous (worker threads
// never block on log hardening) and the storage fleet absorbs the I/O;
// MySQL peaks near 500 connections and then collapses under mutex and
// scheduler contention plus its serialized group commit. The sweep here
// extends past the paper's table (20,000 and 30,000 connections) to show
// Aurora's asymptote; MySQL is only run through 5,000 — its per-connection
// contention model makes larger counts both glacial and uninformative
// (the collapse is already total).

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"

namespace aurora::bench {
namespace {

void Run() {
  PrintHeader("Table 3: SysBench OLTP writes/sec vs connections",
              "Table 3 (§6.1.3), extended past 20,000 connections");

  const int conns[] = {50, 500, 5000, 20000, 30000};
  const int kMysqlMaxConns = 5000;

  BenchReport report("table3_connections");

  printf("%-12s %16s %14s\n", "Connections", "Aurora writes/s",
         "MySQL writes/s");
  for (int c : conns) {
    // The paper's 10GB table has ~25M rows; at the simulated scale we keep
    // rows-per-connection high enough that lock-collision probability
    // matches the paper's regime rather than an artifact of tiny tables
    // (40 rows/connection keeps expected write-lock collisions per instant
    // in the single digits at 5,000 connections), while bounding the
    // touched-page footprint.
    const uint64_t rows =
        std::max<uint64_t>(RowsForGb(10), static_cast<uint64_t>(c) * 40);
    SysbenchOptions sopts;
    sopts.mode = SysbenchOptions::Mode::kOltp;
    sopts.connections = c;
    // The extended points run a shorter measured window: with 20-30K
    // closed-loop connections the per-second event volume is ~6x the
    // paper's largest row and one second is statistically plenty.
    sopts.duration = c > kMysqlMaxConns ? Seconds(1) : Seconds(2);
    sopts.warmup = Millis(500);

    ClusterOptions aopts = StandardAuroraOptions();
    // Interval windows on the largest point: the JSON carries a time series
    // of the whole registry across the measured second.
    const SimDuration window = c == conns[4] ? Millis(250) : 0;
    AuroraRun aurora = RunAuroraSysbench(aopts, sopts, rows, window);

    std::string prefix = "c" + std::to_string(c);
    report.Result(prefix + ".aurora_writes_per_sec",
                  aurora.results.writes_per_sec());
    report.Result(prefix + ".aurora_tps", aurora.results.tps());
    report.Result(prefix + ".aurora_txn_p95_ms",
                  ToMillis(aurora.results.txn_latency_us.P95()));
    if (!aurora.windows.empty()) {
      report.AttachWindows(prefix + ".aurora_windows", aurora.windows);
    }
    if (c == conns[4] && aurora.cluster != nullptr) {
      report.AttachSnapshot("aurora", aurora.cluster->metrics()->Snapshot());
    }

    if (c <= kMysqlMaxConns) {
      MysqlClusterOptions mopts = StandardMysqlOptions();
      // Per-statement penalty growing with open connections: the documented
      // model of MySQL's contention collapse (DESIGN.md).
      mopts.mysql.cpu_contention_per_connection_us = 0.05;
      MysqlRun mysql = RunMysqlSysbench(mopts, sopts, rows);
      report.Result(prefix + ".mysql_writes_per_sec",
                    mysql.results.writes_per_sec());
      printf("%-12d %16.0f %14.0f\n", c, aurora.results.writes_per_sec(),
             mysql.results.writes_per_sec());
    } else {
      printf("%-12d %16.0f %14s\n", c, aurora.results.writes_per_sec(),
             "(skipped)");
    }
  }
  printf("\nExpected shape: Aurora rising through 5,000 connections and\n");
  printf("holding its plateau at 20,000-30,000 (asynchronous commits keep\n");
  printf("worker threads off the scheduler); MySQL peaking around 500 then\n");
  printf("dropping (paper: 21K -> 13K).\n");
  report.Write();
}

}  // namespace
}  // namespace aurora::bench

int main() {
  aurora::bench::Run();
  return 0;
}
