#ifndef AURORA_BASELINE_MIRRORED_MYSQL_H_
#define AURORA_BASELINE_MIRRORED_MYSQL_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baseline/ebs.h"
#include "common/histogram.h"
#include "common/random.h"
#include "engine/buffer_pool.h"
#include "engine/lock_manager.h"
#include "engine/options.h"
#include "engine/restart_loop.h"
#include "log/mtr.h"
#include "page/btree.h"
#include "page/page_provider.h"
#include "sim/instance.h"
#include "storage/sim_s3.h"

namespace aurora::baseline {

class BinlogReplica;

/// Knobs of the traditional engine.
struct MirroredMysqlOptions {
  EngineOptions engine;  // page size, buffer pool, CPU costs, lock timeout
  /// Checkpoint cadence and batch size (dirty-page flushing).
  SimDuration checkpoint_interval = Millis(250);
  size_t checkpoint_batch_pages = 64;
  /// Torn-page protection: write pages to the double-write area first.
  bool double_write = true;
  /// Write a binary log (required for replication / PITR), archived to S3.
  bool binlog = true;
  /// Per-statement CPU penalty per concurrent connection (models mutex and
  /// scheduler contention that collapses MySQL beyond ~500 connections,
  /// Table 3). Microseconds per connection.
  double cpu_contention_per_connection_us = 0.0;
  /// Number of open connections (for the contention model); set by the
  /// workload driver.
  int active_connections = 1;
  /// Commits hardened per WAL flush. MySQL 5.6's binlog/redo group commit
  /// was narrow; this caps how much a single fsync chain can amortize.
  size_t group_commit_max = 4;
};

struct MysqlStats {
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t wal_flushes = 0;
  uint64_t wal_bytes = 0;
  uint64_t page_writes = 0;
  uint64_t dwb_writes = 0;
  uint64_t binlog_writes = 0;
  uint64_t checkpoints = 0;
  uint64_t page_reads = 0;
  uint64_t dirty_evict_stalls = 0;
  Histogram commit_latency_us;
  Histogram read_latency_us;
  Histogram write_latency_us;
};

/// The paper's comparison system (Figure 2): community-MySQL-style engine in
/// an active/standby pair, each instance on a mirrored EBS volume, with
/// synchronous block-level replication to the standby. Every write the
/// engine performs — WAL, data pages, double-write buffer, binlog, metadata —
/// crosses the network through the sequential chain
///   step 1-2: primary EBS + its mirror,
///   step 3:   ship to the standby instance,
///   step 4-5: standby EBS + its mirror,
/// which is the amplification and synchrony Aurora eliminates (§3.1).
///
/// It reuses the same B+-tree / page / buffer-pool / lock-manager code as
/// the Aurora engine; only durability differs: a local WAL flushed on
/// commit, dirty pages written back by checkpoints (and by forced eviction),
/// ARIES-style redo replay from the last checkpoint on recovery.
class MirroredMySql : public WalSink, public PageProvider {
 public:
  /// `nodes` are pre-created simulation hosts:
  /// {standby instance, primary EBS server, primary EBS mirror, standby EBS
  /// server, standby EBS mirror}.
  struct NodeSet {
    sim::NodeId standby;
    sim::NodeId primary_ebs, primary_ebs_mirror;
    sim::NodeId standby_ebs, standby_ebs_mirror;
  };

  MirroredMySql(sim::EventLoop* loop, sim::Network* network,
                sim::NodeId node_id, sim::Instance* instance, SimS3* s3,
                const NodeSet& nodes, sim::DiskOptions ebs_disk,
                MirroredMysqlOptions options, Random rng);
  ~MirroredMySql() override;

  MirroredMySql(const MirroredMySql&) = delete;
  MirroredMySql& operator=(const MirroredMySql&) = delete;

  // --- Lifecycle -------------------------------------------------------------
  void Bootstrap(std::function<void(Status)> done);
  void Crash();
  /// ARIES-style recovery: read the checkpoint, replay the WAL from it.
  void Recover(std::function<void(Status)> done);

  // --- Schema / transactions (same surface as aurora::Database) -------------
  void CreateTable(const std::string& name, std::function<void(Status)> done);
  /// See Database::AttachPreloadedTable; pages come from the synthesizer on
  /// EBS read misses.
  void AttachPreloadedTable(const std::string& name,
                            std::function<uint64_t(PageId)> plan,
                            std::function<void(Result<PageId>)> done);
  void set_page_synthesizer(std::function<bool(PageId, Page*)> fn) {
    synthesizer_ = std::move(fn);
  }
  Result<PageId> TableAnchor(const std::string& name);
  TxnId Begin();
  void Put(TxnId txn, PageId table, const std::string& key,
           const std::string& value, std::function<void(Status)> done);
  void Get(TxnId txn, PageId table, const std::string& key,
           std::function<void(Result<std::string>)> done);
  void Delete(TxnId txn, PageId table, const std::string& key,
              std::function<void(Status)> done);
  void Commit(TxnId txn, std::function<void(Status)> done);
  void Rollback(TxnId txn, std::function<void(Status)> done);

  // --- Replication ------------------------------------------------------------
  void AttachBinlogReplica(sim::NodeId replica_node);

  // --- Introspection ----------------------------------------------------------
  const MysqlStats& stats() const { return stats_; }
  MysqlStats* mutable_stats() { return &stats_; }
  Lsn flushed_lsn() const { return flushed_lsn_; }
  Lsn checkpoint_lsn() const { return checkpoint_lsn_; }
  size_t dirty_pages() const { return dirty_since_.size(); }
  BufferPool* buffer_pool() { return &pool_; }
  MirroredMysqlOptions* mutable_options() { return &options_; }
  EbsVolume* primary_ebs() { return primary_ebs_.get(); }
  EbsVolume* standby_ebs() { return standby_ebs_.get(); }
  sim::NodeId node_id() const { return node_id_; }

  // --- WalSink -----------------------------------------------------------------
  Status CommitMtr(MiniTransaction* mtr) override;

  // --- PageProvider -------------------------------------------------------------
  Result<Page*> GetPage(PageId id) override;
  Result<Page*> AllocatePage(PageType type, uint8_t level,
                             MiniTransaction* mtr) override;
  Status FreePage(Page* page, MiniTransaction* mtr) override;
  size_t page_size() const override { return options_.engine.page_size; }

 private:
  struct Txn {
    TxnId id;
    bool active = true;
    struct UndoEntry {
      PageId table;
      std::string key;
      bool had_old;
      std::string old_value;
    };
    std::vector<UndoEntry> undo;
    /// Binlog (statement) events of this transaction.
    std::string binlog;
    Lsn commit_lsn = kInvalidLsn;
  };

  struct CommitWaiter {
    TxnId txn;
    Lsn lsn;
    std::function<void(Status)> done;
    SimTime requested_at;
  };

  void HandleMessage(const sim::Message& msg);
  /// Writes `bytes` under `key` through the full 5-step chain: primary EBS
  /// (+mirror), ship to standby, standby EBS (+mirror).
  void ChainWrite(const std::string& key, std::string bytes,
                  std::function<void(Status)> done);
  void StartWalFlush();
  void FinishWalFlush(Lsn flushed_through);
  void CheckpointTick();
  void FlushOnePage(PageId id, std::function<void(Status)> done);
  SimDuration StatementCpuCost() const;
  /// The restart loop's step before each `done`: InnoDB's LRU flusher.
  void FlushLruVictim();
  Status WriteRowAttempt(Txn* txn, PageId table, const std::string& key,
                         const std::string* value);
  Txn* FindTxn(TxnId id);
  void FinishRollback(Txn* txn, std::function<void(Status)> done);
  void MarkDirty(const MiniTransaction& mtr);
  void ReplayWal(std::shared_ptr<std::vector<LogRecord>> records, size_t idx,
                 std::function<void(Status)> done);

  sim::EventLoop* loop_;
  sim::Network* network_;
  sim::NodeId node_id_;
  sim::Instance* instance_;
  SimS3* s3_;
  NodeSet nodes_;
  MirroredMysqlOptions options_;
  Random rng_;

  std::unique_ptr<EbsVolume> primary_ebs_;
  std::unique_ptr<EbsVolume> standby_ebs_;

  // WAL state.
  Lsn next_lsn_ = 1;
  Lsn flushed_lsn_ = kInvalidLsn;
  Lsn checkpoint_lsn_ = kInvalidLsn;
  Lsn last_vol_lsn_ = kInvalidLsn;
  std::vector<LogRecord> wal_buffer_;  // records > flushed_lsn_
  bool wal_flush_in_flight_ = false;
  uint64_t next_wal_seq_ = 1;
  uint64_t next_binlog_seq_ = 1;
  /// Last LSN contained in each WAL object, so checkpoints can record where
  /// a recovery scan must start.
  std::map<uint64_t, Lsn> wal_last_lsn_;
  std::deque<CommitWaiter> commit_waiters_;

  // Chain-write plumbing.
  struct ChainOp {
    std::string key;
    std::string bytes;
    std::function<void(Status)> done;
  };
  std::map<uint64_t, ChainOp> chain_ops_;
  uint64_t next_chain_ = 1;

  // Page state.
  BufferPool pool_;
  Lsn infinite_vdl_ = UINT64_MAX;  // baseline pool never blocks on VDL
  std::map<PageId, Lsn> dirty_since_;
  RestartLoop restarts_{&pool_, [this] { FlushLruVictim(); }};
  std::set<PageId> fetch_in_flight_;

  LockManager locks_;
  TxnId next_txn_ = 1;
  std::map<TxnId, std::unique_ptr<Txn>> txns_;

  std::vector<sim::NodeId> binlog_replicas_;
  std::function<bool(PageId, Page*)> synthesizer_;

  bool open_ = false;
  bool checkpointing_ = false;
  bool lru_flush_in_flight_ = false;
  uint64_t generation_ = 0;
  // Periodic checkpoint re-arm; cancelled by Crash() so crash/restart
  // cycles do not accumulate pending events in the loop.
  sim::EventId checkpoint_timer_ = 0;
  MysqlStats stats_;
};

}  // namespace aurora::baseline

#endif  // AURORA_BASELINE_MIRRORED_MYSQL_H_
