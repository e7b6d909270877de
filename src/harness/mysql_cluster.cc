#include "harness/mysql_cluster.h"

namespace aurora {

MysqlCluster::MysqlCluster(MysqlClusterOptions options)
    : options_(options), topology_(3) {
  Random rng(options_.seed);
  network_ = std::make_unique<sim::Network>(&loop_, &topology_,
                                            options_.fabric, rng.Fork());
  s3_ = std::make_unique<SimS3>(&loop_, SimS3::Options{}, rng.Fork());

  // Figure 2 layout: primary instance + its EBS pair in AZ 1, standby
  // instance + its EBS pair in AZ 2. The whole complex is one MirroredMySql
  // object.
  db_node_ = topology_.AddNode(0, "mysql-primary");
  baseline::MirroredMySql::NodeSet nodes;
  nodes.primary_ebs = topology_.AddNode(0, "ebs-primary");
  nodes.primary_ebs_mirror = topology_.AddNode(0, "ebs-primary-mirror");
  nodes.standby = topology_.AddNode(1, "mysql-standby");
  nodes.standby_ebs = topology_.AddNode(1, "ebs-standby");
  nodes.standby_ebs_mirror = topology_.AddNode(1, "ebs-standby-mirror");

  instance_ = std::make_unique<sim::Instance>(&loop_, options_.instance);
  db_ = std::make_unique<baseline::MirroredMySql>(
      &loop_, network_.get(), db_node_, instance_.get(), s3_.get(),
      nodes, options_.ebs_disk, options_.mysql, rng.Fork());

  // Binlog replicas in AZ 3: they interact with the primary only through
  // binlog messages over the fabric.
  for (int i = 0; i < options_.num_binlog_replicas; ++i) {
    sim::NodeId node = topology_.AddNode(static_cast<sim::AzId>(2),
                                         "binlog-replica-" +
                                             std::to_string(i));
    replicas_.push_back(std::make_unique<baseline::BinlogReplica>(
        &loop_, network_.get(), node, options_.binlog_apply_cost));
    db_->AttachBinlogReplica(node);
  }

  // Topology is complete: one RNG stream per node.
  network_->ForkNodeRngStreams(topology_.num_nodes());

  RegisterAllMetrics();
}

void MysqlCluster::RegisterAllMetrics() {
  MetricsRegistry* m = &metrics_;

  // --- Engine (closures indirect through db_ so they stay valid for the
  // cluster's lifetime; the baseline has no failover, so no writer_-style
  // indirection is needed) -------------------------------------------------
  {
    auto stats = [this]() -> const baseline::MysqlStats& {
      return db_->stats();
    };
    struct CounterDef {
      const char* name;
      uint64_t baseline::MysqlStats::*field;
    };
    static constexpr CounterDef kCounters[] = {
        {"txns_committed", &baseline::MysqlStats::txns_committed},
        {"txns_aborted", &baseline::MysqlStats::txns_aborted},
        {"reads", &baseline::MysqlStats::reads},
        {"writes", &baseline::MysqlStats::writes},
        {"wal_flushes", &baseline::MysqlStats::wal_flushes},
        {"wal_bytes", &baseline::MysqlStats::wal_bytes},
        {"page_writes", &baseline::MysqlStats::page_writes},
        {"dwb_writes", &baseline::MysqlStats::dwb_writes},
        {"binlog_writes", &baseline::MysqlStats::binlog_writes},
        {"checkpoints", &baseline::MysqlStats::checkpoints},
        {"page_reads", &baseline::MysqlStats::page_reads},
        {"dirty_evict_stalls", &baseline::MysqlStats::dirty_evict_stalls},
    };
    for (const CounterDef& def : kCounters) {
      m->RegisterCounter(std::string("engine.mysql.") + def.name,
                         [stats, field = def.field] { return stats().*field; });
    }
    struct HistDef {
      const char* name;
      Histogram baseline::MysqlStats::*field;
    };
    static constexpr HistDef kHists[] = {
        {"commit_latency_us", &baseline::MysqlStats::commit_latency_us},
        {"read_latency_us", &baseline::MysqlStats::read_latency_us},
        {"write_latency_us", &baseline::MysqlStats::write_latency_us},
    };
    for (const HistDef& def : kHists) {
      m->RegisterHistogram(
          std::string("engine.mysql.") + def.name,
          [stats, field = def.field] { return &(stats().*field); });
    }
    m->RegisterGauge("engine.mysql.flushed_lsn", [this] {
      return static_cast<double>(db_->flushed_lsn());
    });
    m->RegisterGauge("engine.mysql.checkpoint_lsn", [this] {
      return static_cast<double>(db_->checkpoint_lsn());
    });
    m->RegisterGauge("engine.mysql.dirty_pages", [this] {
      return static_cast<double>(db_->dirty_pages());
    });
  }

  // --- Network totals ------------------------------------------------------
  m->RegisterCounter("net.total.messages_sent",
                     [this] { return network_->total().messages_sent; });
  m->RegisterCounter("net.total.bytes_sent",
                     [this] { return network_->total().bytes_sent; });

  // --- Simulator loop ------------------------------------------------------
  m->RegisterCounter("sim.loop.events_executed",
                     [this] { return loop_.events_executed(); });
  m->RegisterCounter("sim.loop.tombstones", [this] { return loop_.tombstones(); });
  m->RegisterCounter("sim.loop.heap_peak", [this] {
    return static_cast<uint64_t>(loop_.heap_peak());
  });
  m->RegisterGauge("sim.now_us", [this] {
    return static_cast<double>(loop_.now());
  });
}

MysqlCluster::~MysqlCluster() = default;

bool MysqlCluster::RunUntil(std::function<bool()> pred, SimDuration max) {
  const SimTime deadline = loop_.now() + max;
  while (!pred() && loop_.now() < deadline) {
    if (!loop_.RunOne()) return pred();
  }
  return pred();
}

Status MysqlCluster::BootstrapSync() {
  Status result = Status::TimedOut("bootstrap did not finish");
  bool done = false;
  db_->Bootstrap([&](Status s) {
    result = s;
    done = true;
  });
  RunUntil([&] { return done; }, Seconds(60));
  return result;
}

Status MysqlCluster::RecoverSync() {
  Status result = Status::TimedOut("recovery did not finish");
  bool done = false;
  db_->Recover([&](Status s) {
    result = s;
    done = true;
  });
  RunUntil([&] { return done; }, Minutes(30));
  return result;
}

Status MysqlCluster::CreateTableSync(const std::string& name) {
  Status result = Status::TimedOut("create table did not finish");
  bool done = false;
  db_->CreateTable(name, [&](Status s) {
    result = s;
    done = true;
  });
  RunUntil([&] { return done; }, Seconds(60));
  return result;
}

Result<PageId> MysqlCluster::TableAnchorSync(const std::string& name) {
  Result<PageId> r = db_->TableAnchor(name);
  int spins = 0;
  while (!r.ok() && r.status().IsBusy() && spins++ < 100000) {
    if (!loop_.RunOne()) break;
    r = db_->TableAnchor(name);
  }
  return r;
}

Status MysqlCluster::PutSync(PageId table, const std::string& key,
                             const std::string& value) {
  Status result = Status::TimedOut("put did not finish");
  bool done = false;
  TxnId txn = db_->Begin();
  db_->Put(txn, table, key, value, [&](Status s) {
    if (!s.ok()) {
      result = s;
      done = true;
      return;
    }
    db_->Commit(txn, [&](Status cs) {
      result = cs;
      done = true;
    });
  });
  RunUntil([&] { return done; }, Seconds(60));
  return result;
}

Result<std::string> MysqlCluster::GetSync(PageId table,
                                          const std::string& key) {
  Result<std::string> result = Status::TimedOut("get did not finish");
  bool done = false;
  TxnId txn = db_->Begin();
  db_->Get(txn, table, key, [&](Result<std::string> r) {
    result = std::move(r);
    db_->Commit(txn, [&](Status) { done = true; });
  });
  RunUntil([&] { return done; }, Seconds(60));
  return result;
}

}  // namespace aurora
