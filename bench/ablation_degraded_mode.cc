// Degraded-mode ablation: SysBench write-only throughput and latency while
// the fabric adversary injects loss, duplication, bounded reordering and
// bit-flip corruption at swept rates. The paper's quorum design tenet
// ("deal gracefully with ... the continuous low level background noise of
// node, disk and network path failures", §2.1) predicts graceful
// degradation: 4/6 write quorums absorb per-link loss, storage dedups
// duplicated batches, and the frame checksum turns corruption into loss —
// so throughput should bend, not break, as rates climb.

#include <cstdio>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/chaos.h"

namespace aurora::bench {
namespace {

struct DegradedPoint {
  const char* name;
  AdversaryConfig cfg;
};

std::vector<DegradedPoint> SweepPoints() {
  std::vector<DegradedPoint> pts;
  pts.push_back({"clean", {}});
  for (double drop : {0.01, 0.02, 0.05}) {
    AdversaryConfig c;
    c.drop_probability = drop;
    pts.push_back({nullptr, c});
    pts.back().name = drop == 0.01   ? "drop_1pct"
                      : drop == 0.02 ? "drop_2pct"
                                     : "drop_5pct";
  }
  for (double dup : {0.05, 0.20}) {
    AdversaryConfig c;
    c.duplicate_probability = dup;
    pts.push_back({dup == 0.05 ? "dup_5pct" : "dup_20pct", c});
  }
  {
    AdversaryConfig c;
    c.reorder_window = Millis(2);
    pts.push_back({"reorder_2ms", c});
  }
  {
    // The chaos-suite acceptance profile: everything at once.
    AdversaryConfig c;
    c.drop_probability = 0.02;
    c.duplicate_probability = 0.05;
    c.reorder_window = Millis(2);
    c.corrupt_probability = 0.001;
    pts.push_back({"combined", c});
  }
  return pts;
}

void Run() {
  PrintHeader("Degraded mode: write throughput under fabric adversary",
              "§2.1 design tenet (graceful degradation under noise)");

  const uint64_t rows = RowsForGb(2);
  BenchReport report("degraded_mode");
  AuroraRun combined_run;  // kept alive for the full metrics dump

  printf("%-12s %14s %12s %14s %14s\n", "point", "writes/s", "errors",
         "dup_batches", "corrupt_drop");
  for (const DegradedPoint& pt : SweepPoints()) {
    SysbenchOptions sopts;
    sopts.mode = SysbenchOptions::Mode::kWriteOnly;
    sopts.connections = 32;
    sopts.duration = Millis(1500);
    sopts.warmup = Millis(300);

    // Build the cluster by hand (instead of RunAuroraSysbench) so the
    // adversary is armed before the first workload statement.
    AuroraRun run;
    run.cluster = std::make_unique<AuroraCluster>(StandardAuroraOptions());
    run.catalog = std::make_unique<SyntheticCatalog>();
    if (!run.cluster->BootstrapSync().ok()) return;
    auto layout = AttachSyntheticTable(run.cluster.get(), run.catalog.get(),
                                       "sbtest", rows, kRowBytes);
    if (!layout.ok()) return;
    run.table = (*layout)->anchor();
    sopts.table_rows = rows;
    sopts.value_size = kRowBytes;

    ChaosEngine chaos(run.cluster.get());
    chaos.SetAdversary(pt.cfg);

    AuroraClient client(run.cluster->writer());
    SysbenchDriver driver(run.cluster->loop(), &client, run.table, sopts);
    bool done = false;
    driver.Run([&] { done = true; });
    run.cluster->RunUntil([&] { return done; }, Minutes(60));
    run.results = driver.results();
    run.ok = done;

    uint64_t dup_batches = 0;
    uint64_t corrupt_dropped =
        run.cluster->network()->adversary().corrupted_dropped;
    for (size_t i = 0; i < run.cluster->num_storage_nodes(); ++i) {
      dup_batches += run.cluster->storage_node(i)->stats().duplicate_batches;
    }
    printf("%-12s %14.0f %12llu %14llu %14llu\n", pt.name,
           run.results.writes_per_sec(),
           static_cast<unsigned long long>(run.results.errors),
           static_cast<unsigned long long>(dup_batches),
           static_cast<unsigned long long>(corrupt_dropped));

    const std::string key(pt.name);
    report.Result(key + ".writes_per_sec", run.results.writes_per_sec());
    report.Result(key + ".tps", run.results.tps());
    report.Result(key + ".errors", static_cast<double>(run.results.errors));
    report.Result(key + ".duplicate_batches",
                  static_cast<double>(dup_batches));
    report.Result(key + ".corrupted_dropped",
                  static_cast<double>(corrupt_dropped));
    if (std::string(pt.name) == "combined") {
      combined_run = std::move(run);
    }
  }
  // Full cluster dump for the combined point: net.adversary.*,
  // storage.{stale_epoch_rejects,duplicate_batches,corrupt_frames_dropped}
  // and the engine retry counters decompose where the degradation went.
  if (combined_run.cluster != nullptr) {
    report.ResultHistogram("combined.txn_latency_us",
                           &combined_run.results.txn_latency_us);
    report.AttachCluster("combined", combined_run.cluster.get());
  }
  report.Write();

  printf("\nExpected shape: graceful degradation — modest slope from\n");
  printf("clean through drop_5pct (retries absorb loss), near-zero cost\n");
  printf("for duplication (storage dedups without re-applying), and the\n");
  printf("combined adversary still completing every transaction.\n");
}

}  // namespace
}  // namespace aurora::bench

int main() {
  aurora::bench::Run();
  return 0;
}
