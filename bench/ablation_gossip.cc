// Ablation: peer gossip (Figure 4 step 4). With message loss, the writer's
// retries establish quorum but individual replicas stay holey; gossip is
// what converges every segment to completeness (which read routing and
// repair depend on). Compare SCL convergence with gossip on vs off.

#include <cstdio>

#include "bench/bench_util.h"

namespace aurora::bench {
namespace {

void RunOne(const char* label, const char* key, bool gossip_on,
            BenchReport* report) {
  ClusterOptions copts = StandardAuroraOptions();
  if (!gossip_on) {
    copts.storage.gossip_interval = Minutes(60);  // effectively disabled
  }
  AuroraCluster cluster(copts);
  if (!cluster.BootstrapSync().ok()) return;
  if (!cluster.CreateTableSync("t").ok()) return;
  PageId table = *cluster.TableAnchorSync("t");
  cluster.network()->set_drop_probability(0.02);
  for (int i = 0; i < 400; ++i) {
    (void)cluster.PutSync(table, SyntheticTableLayout::KeyOf(i), "v");
  }
  cluster.network()->set_drop_probability(0.0);
  cluster.RunFor(Seconds(5));

  Lsn vdl = cluster.writer()->vdl();
  size_t complete = 0, total = 0;
  uint64_t filled = 0;
  size_t num_pgs = cluster.control_plane()->num_pgs();
  for (PgId pg = 0; pg < num_pgs; ++pg) {
    for (sim::NodeId node : cluster.control_plane()->membership(pg).nodes) {
      StorageNode* sn = cluster.storage_node_by_id(node);
      if (sn == nullptr || sn->segment(pg) == nullptr) continue;
      ++total;
      if (sn->segment(pg)->scl() >= vdl) ++complete;
    }
  }
  for (size_t i = 0; i < cluster.num_storage_nodes(); ++i) {
    filled += cluster.storage_node(i)->stats().gossip_records_filled;
  }
  printf("%-14s %12zu/%zu %22llu\n", label, complete, total,
         static_cast<unsigned long long>(filled));
  std::string prefix(key);
  report->Result(prefix + ".complete_segments",
                 static_cast<double>(complete));
  report->Result(prefix + ".total_segments", static_cast<double>(total));
  report->Result(prefix + ".records_backfilled",
                 static_cast<double>(filled));
  report->AttachSnapshot(prefix + ".cluster", cluster.metrics()->Snapshot());
}

void Run() {
  PrintHeader("Ablation: gossip-driven gap filling under 2% message loss",
              "Figure 4 step 4 (§4.1)");
  printf("%-14s %14s %22s\n", "gossip", "complete segs",
         "records backfilled");
  BenchReport report("ablation_gossip");
  RunOne("on", "on", true, &report);
  RunOne("off", "off", false, &report);
  printf("\nExpected shape: with gossip every replica converges to\n");
  printf("SCL >= VDL; without it, replicas that missed batches stay\n");
  printf("permanently holey (quorum still holds, but read routing and\n");
  printf("repair donors shrink).\n");
  report.Write();
}

}  // namespace
}  // namespace aurora::bench

int main() {
  aurora::bench::Run();
  return 0;
}
