#ifndef AURORA_HARNESS_MYSQL_CLUSTER_H_
#define AURORA_HARNESS_MYSQL_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "baseline/binlog_replica.h"
#include "baseline/mirrored_mysql.h"
#include "common/metrics.h"
#include "common/random.h"
#include "sim/event_loop.h"
#include "sim/instance.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "storage/sim_s3.h"

namespace aurora {

/// Stands up the paper's comparison system (Figure 2): an active MySQL
/// instance in AZ 1 on a mirrored EBS volume, a standby in AZ 2 on its own
/// mirrored EBS volume with synchronous block-level replication, binlog
/// archival to S3, and optional asynchronous binlog replicas.
struct MysqlClusterOptions {
  sim::InstanceOptions instance = sim::R38XLarge();
  baseline::MirroredMysqlOptions mysql;
  sim::DiskOptions ebs_disk;  // provisioned-IOPS EBS profile
  sim::FabricOptions fabric;
  int num_binlog_replicas = 0;
  /// Cost for the replica's single SQL thread to re-execute one statement.
  /// Much higher than the primary's per-statement CPU: the applier runs
  /// serially and pays the row I/O the primary amortizes across many
  /// connections (MySQL 5.6-era single-threaded replication).
  SimDuration binlog_apply_cost = Micros(800);
  uint64_t seed = 42;
  MysqlClusterOptions() {
    // 30K provisioned IOPS EBS volume (§6.1) — slower per-op than local
    // NVMe, network-attached.
    ebs_disk.max_iops = 30000;
    ebs_disk.write_latency = Micros(300);
    ebs_disk.read_latency = Micros(250);
  }
};

class MysqlCluster {
 public:
  explicit MysqlCluster(MysqlClusterOptions options);
  ~MysqlCluster();

  MysqlCluster(const MysqlCluster&) = delete;
  MysqlCluster& operator=(const MysqlCluster&) = delete;

  /// The one event loop every component of the baseline runs on.
  sim::EventLoop* loop() { return &loop_; }
  sim::Network* network() { return network_.get(); }
  baseline::MirroredMySql* db() { return db_.get(); }
  sim::Instance* instance() { return instance_.get(); }
  SimS3* s3() { return s3_.get(); }
  sim::NodeId db_node() const { return db_node_; }
  size_t num_binlog_replicas() const { return replicas_.size(); }
  baseline::BinlogReplica* binlog_replica(size_t i) {
    return replicas_[i].get();
  }

  // --- Synchronous helpers ---------------------------------------------------
  Status BootstrapSync();
  Status RecoverSync();
  Status CreateTableSync(const std::string& name);
  Result<PageId> TableAnchorSync(const std::string& name);
  Status PutSync(PageId table, const std::string& key,
                 const std::string& value);
  Result<std::string> GetSync(PageId table, const std::string& key);

  bool RunUntil(std::function<bool()> pred, SimDuration max);
  void RunFor(SimDuration d) { loop_.RunFor(d); }

  /// Registry over the baseline's stats, mirroring AuroraCluster::metrics()
  /// so benches can dump both systems through the same machinery (table 1,
  /// figure 7).
  MetricsRegistry* metrics() { return &metrics_; }
  std::string DumpMetricsJson() { return metrics_.ToJson(); }

 private:
  /// Installs pull-closures for every MysqlStats field plus WAL/checkpoint
  /// gauges and the simulator loop counters.
  void RegisterAllMetrics();

  MysqlClusterOptions options_;
  sim::EventLoop loop_;
  sim::Topology topology_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<SimS3> s3_;
  std::unique_ptr<sim::Instance> instance_;
  std::unique_ptr<baseline::MirroredMySql> db_;
  std::vector<std::unique_ptr<baseline::BinlogReplica>> replicas_;
  sim::NodeId db_node_ = sim::kInvalidNode;
  MetricsRegistry metrics_;
};

}  // namespace aurora

#endif  // AURORA_HARNESS_MYSQL_CLUSTER_H_
