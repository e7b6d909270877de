#ifndef AURORA_ENGINE_DATABASE_H_
#define AURORA_ENGINE_DATABASE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/result.h"
#include "engine/buffer_pool.h"
#include "engine/lock_manager.h"
#include "engine/options.h"
#include "engine/restart_loop.h"
#include "log/mtr.h"
#include "page/btree.h"
#include "page/page_provider.h"
#include "quorum/quorum.h"
#include "sim/event_loop.h"
#include "sim/instance.h"
#include "sim/network.h"
#include "storage/control_plane.h"
#include "storage/wire.h"

namespace aurora {

/// Writer-side counters. Network I/O counts live in sim::Network; these are
/// engine-level events.
struct EngineStats {
  uint64_t txns_started = 0;
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t deletes = 0;
  uint64_t storage_page_reads = 0;   // cache-miss fetches issued
  uint64_t log_batches_sent = 0;     // batch sends (x6 replicas on the wire)
  uint64_t log_records_sent = 0;
  uint64_t log_bytes_generated = 0;  // bytes of redo produced (pre-fanout)
  uint64_t backpressure_stalls = 0;  // ops deferred by the LAL (§4.2.1)
  uint64_t batch_retries = 0;
  uint64_t read_retries = 0;
  /// Allocator free-list traffic: pages returned by empty-leaf unlinking
  /// and pages handed back out instead of growing the page space (§5 undo
  /// churn must reach a steady-state footprint).
  uint64_t pages_freed = 0;
  uint64_t pages_reused = 0;
  /// Storage rejections carrying a newer volume epoch (this writer has been
  /// superseded); the first one demotes the writer (see fenced()).
  uint64_t fenced_rejections = 0;
  /// Membership-config refreshes forced by kStaleConfig NAKs from storage
  /// (a repair/migration moved a replica while this writer held the old
  /// member list). Each one re-reads the control plane and resends.
  uint64_t stale_config_refreshes = 0;
  /// Frames that failed the fabric checksum at this node and were dropped.
  uint64_t corrupt_frames_dropped = 0;
  /// Bytes NOT re-serialized thanks to single-encode fan-out: the shared
  /// WriteBatchMsg body is encoded once per (re)send and shared across the
  /// 6 segment replicas; this accumulates (sends - 1) * body_size.
  uint64_t batch_encode_bytes_saved = 0;
  Histogram commit_latency_us;
  Histogram read_latency_us;
  Histogram write_latency_us;
  // Write-path stage tracing (Figure 9-style breakdown): per-batch
  // timestamps at append -> flush -> first storage ack -> write quorum.
  Histogram batch_append_to_flush_us;
  Histogram batch_flush_to_first_ack_us;
  Histogram batch_first_ack_to_quorum_us;
  Histogram batch_append_to_quorum_us;
  // Read-path tracing: storage fetch round trip and how many segment
  // replicas were tried before one served the page.
  Histogram page_fetch_latency_us;
  Histogram read_retry_depth;
};

/// Transaction state as persisted in the system transaction table.
enum class TxnState : uint8_t {
  kActive = 1,
  kCommitted = 2,
  kAborted = 3,
};

class ReadReplica;

/// The Aurora database engine — the single writer instance of Figure 3/5.
///
/// It keeps the top three-quarters of a traditional kernel (transactions,
/// locking, buffer cache, B+-tree access methods, undo management) and
/// offloads redo logging, durable storage, page materialization and crash
/// recovery to the storage service: the only thing it ever sends storage is
/// redo log records (§3.2).
///
/// All public operations are asynchronous (the simulation is event-driven):
/// they may complete synchronously or via the supplied callback, exactly
/// once either way.
///
/// Consistency machinery implemented here, per §4:
///  - LSN allocation with the LAL back-pressure bound;
///  - per-PG backlinks on every record;
///  - VDL maintenance from per-batch write-quorum acknowledgements;
///  - asynchronous group commit (a commit completes when VDL >= its commit
///    LSN — worker threads never stall on commits);
///  - single-segment reads at a VDL read point (no read quorum in the
///    normal path), with PGMRPL broadcast for storage GC;
///  - quorum-based crash recovery: inventory union -> VCL -> VDL ->
///    epoch-stamped truncation -> undo of in-flight transactions.
class Database : public WalSink, public PageProvider {
 public:
  Database(sim::EventLoop* loop, sim::Network* network, sim::NodeId node_id,
           sim::Instance* instance, ControlPlane* control_plane,
           EngineOptions options, Random rng);
  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- Volume lifecycle ----------------------------------------------------
  /// Formats a brand-new volume (meta page + system trees) and waits for
  /// durability.
  void Bootstrap(std::function<void(Status)> done);

  /// Crash recovery (§4.3): runs the volume recovery protocol against the
  /// storage fleet, then rolls back in-flight transactions. `done` fires
  /// when the database is open for traffic (undo completes in background;
  /// see set_undo_complete_callback).
  void Recover(std::function<void(Status)> done);

  /// Simulates an instance crash: all volatile state (cache, locks, active
  /// txns, unflushed batches) is discarded. Call Recover() to come back.
  void Crash();

  /// Fires when background undo of in-flight transactions finishes after
  /// Recover().
  void set_undo_complete_callback(std::function<void()> cb) {
    undo_complete_cb_ = std::move(cb);
  }

  // --- Schema ---------------------------------------------------------------
  void CreateTable(const std::string& name, std::function<void(Status)> done);
  /// Anchor page id for a table; NotFound if absent.
  Result<PageId> TableAnchor(const std::string& name);

  /// Registers a pre-loaded (snapshot-restored) table without writing its
  /// pages through the log: reserves a page-id range in the allocator and
  /// adds the catalog entry. `plan` receives the first reserved page id and
  /// returns how many pages to reserve (the caller builds its synthetic
  /// layout there). Completes with the anchor page id once durable.
  void AttachPreloadedTable(const std::string& name,
                            std::function<uint64_t(PageId)> plan,
                            std::function<void(Result<PageId>)> done);

  /// Online DDL (§7.3): bumps the table's schema version. Existing pages
  /// upgrade lazily on modification (modify-on-write); readers decode rows
  /// using the per-page version. Returns the new version.
  void AlterTableSchema(const std::string& name,
                        std::function<void(Result<uint32_t>)> done);

  // --- Transactions ----------------------------------------------------------
  TxnId Begin();
  /// Upsert. The value replaces any existing value for the key.
  void Put(TxnId txn, PageId table, const std::string& key,
           const std::string& value, std::function<void(Status)> done);
  /// Point read (S-locked: repeatable read).
  void Get(TxnId txn, PageId table, const std::string& key,
           std::function<void(Result<std::string>)> done);
  /// Snapshot point read — no lock, reads current committed state.
  void SnapshotGet(TxnId txn, PageId table, const std::string& key,
                   std::function<void(Result<std::string>)> done);
  void Delete(TxnId txn, PageId table, const std::string& key,
              std::function<void(Status)> done);
  /// Range scan of up to `limit` rows starting at `start` (S-locks rows).
  void Scan(TxnId txn, PageId table, const std::string& start, int limit,
            std::function<void(
                Result<std::vector<std::pair<std::string, std::string>>>)>
                done);
  void Commit(TxnId txn, std::function<void(Status)> done);
  void Rollback(TxnId txn, std::function<void(Status)> done);

  /// Zero-Downtime Patching (§7.4, Figure 12): waits for an instant with no
  /// in-flight transactions (new transactions' statements are held at the
  /// engine door meanwhile), "spools" session state, swaps the engine for
  /// `patch_time`, reloads, and releases the held work. In-flight
  /// connections never see an error — unlike a restart, which drops every
  /// session and runs recovery.
  void ZeroDowntimePatch(SimDuration patch_time,
                         std::function<void(Status)> done);
  bool patching() const { return paused_; }

  // --- Replication -----------------------------------------------------------
  void AttachReplica(sim::NodeId replica_node);
  void DetachReplica(sim::NodeId replica_node);

  // --- Introspection ----------------------------------------------------------
  Lsn vdl() const { return vdl_; }
  Lsn vcl() const { return vcl_; }
  Lsn next_lsn() const { return next_lsn_; }
  Epoch volume_epoch() const { return volume_epoch_; }
  Lsn max_allocated_lsn() const { return max_allocated_; }
  bool is_open() const { return open_; }
  /// True once storage has rejected this writer with a newer volume epoch
  /// (a replica was promoted while we were partitioned). A fenced writer
  /// stops retrying batches, fails queued and new work with Status::Fenced,
  /// and never acks another commit — graceful demotion, not an endless
  /// retry loop.
  bool fenced() const { return fenced_; }
  bool in_backpressure() const {
    // The annulled range left by recovery (VDL, VDL+LAL] is a hole in the
    // LSN space, not outstanding log volume — exclude it from the LAL
    // window until the VDL passes it.
    Lsn debt = lal_gap_top_ > vdl_ ? lal_gap_top_ - vdl_ : 0;
    return next_lsn_ - vdl_ - debt > options_.lal;
  }
  size_t active_txns() const { return txns_.size(); }
  const EngineStats& stats() const { return stats_; }
  EngineStats* mutable_stats() { return &stats_; }
  BufferPool* buffer_pool() { return &pool_; }
  LockManager* lock_manager() { return &locks_; }
  const EngineOptions& options() const { return options_; }
  sim::NodeId node_id() const { return node_id_; }
  ControlPlane* control_plane() { return control_plane_; }

  // --- WalSink ----------------------------------------------------------------
  Status CommitMtr(MiniTransaction* mtr) override;

  // --- PageProvider ------------------------------------------------------------
  Result<Page*> GetPage(PageId id) override;
  Result<Page*> AllocatePage(PageType type, uint8_t level,
                             MiniTransaction* mtr) override;
  Status FreePage(Page* page, MiniTransaction* mtr) override;
  size_t page_size() const override { return options_.page_size; }

 private:
  friend class ReadReplica;

  struct Txn {
    TxnId id;
    TxnState state = TxnState::kActive;
    /// (seq, table, key, had_old, old_value) — in-memory mirror of the
    /// durable undo records, for fast rollback.
    struct UndoEntry {
      uint64_t seq;
      PageId table;
      std::string key;
      bool had_old;
      std::string old_value;
    };
    std::vector<UndoEntry> undo;
    uint64_t next_undo_seq = 0;
    Lsn commit_lsn = kInvalidLsn;
    SimTime commit_requested_at = 0;
    std::function<void(Status)> commit_cb;
    bool durably_registered = false;  // row exists in the txn table
  };

  struct PendingBatch {
    PgId pg;
    std::vector<LogRecord> records;
    size_t bytes = 0;
    sim::EventId linger_event = 0;
    bool linger_armed = false;
    SimTime first_append_at = 0;
  };

  struct OutstandingBatch {
    PgId pg;
    uint64_t seq;
    std::vector<Lsn> lsns;
    std::vector<LogRecord> records;  // kept for per-replica (re)sends
    WriteTracker tracker;
    sim::EventId retry_event = 0;
    int attempts = 0;
    // Stage timestamps for the write-path tracing histograms.
    SimTime appended_at = 0;
    SimTime flushed_at = 0;
    SimTime first_ack_at = 0;
    explicit OutstandingBatch(QuorumConfig q) : tracker(q) {}
  };

  struct PendingRead {
    PageId page;
    PgId pg;
    Lsn read_point;
    int replica_tried = 0;
    sim::EventId timeout_event = 0;
    SimTime started_at = 0;
  };

  using ScanRows = std::vector<std::pair<std::string, std::string>>;

  /// One client statement (Put, Delete, Get, SnapshotGet or Scan) on its way
  /// through RunStatement. Exactly one of the three `done`s is set.
  struct Statement {
    enum class Kind : uint8_t { kPut, kDelete, kGet, kSnapshotGet, kScan };
    Statement(Kind k, TxnId t, PageId tbl, const std::string& row_key)
        : kind(k), txn(t), table(tbl), key(row_key) {}
    bool writes() const { return kind == Kind::kPut || kind == Kind::kDelete; }
    /// SnapshotGet and Scan read committed state: they check no transaction
    /// and take no row lock.
    bool reads_committed() const {
      return kind == Kind::kSnapshotGet || kind == Kind::kScan;
    }

    Kind kind;
    TxnId txn;
    PageId table;
    std::string key;    // the row; Scan's start key
    std::string value;  // Put's new value
    int limit = 0;      // Scan's row limit
    SimTime started = 0;
    std::string row;    // a point read's stored row
    ScanRows rows;      // Scan's stored rows
    std::function<void(Status)> write_done;
    std::function<void(Result<std::string>)> read_done;
    std::function<void(Result<ScanRows>)> scan_done;
  };

  // --- Statement pipeline --------------------------------------------------
  /// The one door of every client statement: gate, transaction check, ZDP
  /// and LAL holds, counter, CPU charge, row lock, restart loop, latency.
  void RunStatement(std::shared_ptr<Statement> st);
  /// The row lock, the restart loop and the latency histogram, once the
  /// statement's CPU is charged.
  void LockAndRunStatement(std::shared_ptr<Statement> st);
  /// One from-scratch attempt of the statement, run by the restart loop.
  Status StatementAttempt(Statement* st);
  /// Hands `s` (and a read's decoded rows) to the statement's `done`.
  void ReplyStatement(Statement* st, const Status& s);
  void DeferForBackpressure(std::function<void()> retry);
  void DrainBackpressure();

  // --- Write path ------------------------------------------------------------
  PgId PgOf(PageId page) const {
    return static_cast<PgId>(page / options_.pages_per_pg);
  }
  void EnsurePgExists(PgId pg);
  /// The writer's *cached* view of a PG's membership. Data-path sends use
  /// this cache (stamped with its config_epoch) rather than reading the
  /// control plane each time: storage NAKs a stale epoch with kStaleConfig,
  /// which is what forces RefreshPgConfig — the end-to-end membership-epoch
  /// protocol of DESIGN.md §12.
  struct CachedConfig {
    std::array<sim::NodeId, kReplicasPerPg> nodes;
    uint64_t config_epoch = 0;
  };
  const CachedConfig& PgConfig(PgId pg);
  void RefreshPgConfig(PgId pg);
  void AppendToBatch(const LogRecord& record);
  void FlushBatch(PgId pg);
  void SendBatch(OutstandingBatch* batch);
  void HandleWriteAck(const sim::Message& msg);
  void AdvanceDurability();
  void ProcessCommitQueue();
  /// Demotes this writer after a kFenced rejection from storage: cancels
  /// every outstanding batch retry, fails queued commits and waiters, and
  /// closes the engine so new operations fail fast with Status::Fenced.
  void BecomeFenced(Epoch fencing_epoch);

  // --- Read path -------------------------------------------------------------
  void StartPageFetch(PageId id);
  void IssuePageRead(uint64_t req_id);
  void HandleReadPageResp(const sim::Message& msg);
  sim::NodeId PickReadReplicaNode(PgId pg, Lsn read_point, int attempt);

  // --- Txn internals -----------------------------------------------------------
  Txn* FindTxn(TxnId id);
  /// One MTR: row change + undo append + (lazily) txn-table registration.
  Status WriteRowAttempt(Txn* txn, PageId table, const std::string& key,
                         const std::string* value /* null = delete */);
  void RollbackInternal(Txn* txn, std::function<void(Status)> done);
  void UndoOneEntry(Txn* txn, size_t remaining,
                    std::function<void(Status)> done);
  void PurgeTick();
  void PurgeChain(uint64_t gen, size_t budget);
  void PurgeOne(uint64_t gen, std::function<void()> next);
  void UndoNextRecoveredTxn(std::shared_ptr<std::vector<TxnId>> actives,
                            size_t idx);

  // --- System trees ------------------------------------------------------------
  static std::string UndoKey(TxnId txn, uint64_t seq);
  static std::string TxnKey(TxnId txn);
  Status EnsureSystemTrees();

  // --- Watermarks ---------------------------------------------------------------
  void PgmrplTick();
  Lsn ComputePgmrpl() const;
  /// Publishes a consistent (VDL, pg-tail) completeness snapshot to the
  /// PG's segments so idle PGs can serve current read points (§4.2.3).
  void PublishPgSnapshot(PgId pg);

  // --- Replication ----------------------------------------------------------------
  void ReplicaShipTick();
  void HandleReplicaReadPoint(const sim::Message& msg);

  // --- Recovery --------------------------------------------------------------
  struct RecoveryState;
  void RecoveryCollectInventories(std::shared_ptr<RecoveryState> rs);
  void HandleInventoryResp(const sim::Message& msg);
  void RecoveryComputeAndTruncate(std::shared_ptr<RecoveryState> rs);
  /// (Re)sends truncate requests to every PG lacking a write quorum of acks
  /// and re-arms the retry timer. Plain member function instead of a
  /// self-capturing closure so no shared_ptr cycle can keep the recovery
  /// state (and everything it captures) alive forever.
  void RecoveryResendTruncates(std::shared_ptr<RecoveryState> rs);
  void HandleTruncateAck(const sim::Message& msg);
  void RecoveryFinish(std::shared_ptr<RecoveryState> rs);
  void StartBackgroundUndo();

  void HandleMessage(const sim::Message& msg);
  void ScheduleTimers();

  sim::EventLoop* loop_;
  sim::Network* network_;
  sim::NodeId node_id_;
  sim::Instance* instance_;
  ControlPlane* control_plane_;
  EngineOptions options_;
  Random rng_;

  // Durability watermarks (§4.1/4.2).
  Lsn next_lsn_ = 1;
  Lsn vdl_ = kInvalidLsn;
  Lsn vcl_ = kInvalidLsn;
  Epoch volume_epoch_ = 1;
  Lsn last_vol_lsn_ = kInvalidLsn;  // volume-wide backlink tail
  Lsn lal_gap_top_ = kInvalidLsn;   // top of the annulled post-recovery range
  std::map<PgId, Lsn> last_lsn_per_pg_;
  std::set<Lsn> unacked_lsns_;
  std::set<Lsn> pending_cpls_;
  Lsn max_allocated_ = kInvalidLsn;

  BufferPool pool_;
  LockManager locks_;

  // System trees.
  PageId meta_page_id_ = 0;
  std::unique_ptr<BTree> txn_table_;
  std::unique_ptr<BTree> undo_tree_;
  /// Cached schema versions by table anchor (authoritative copy lives in
  /// the catalog records on the meta page).
  std::map<PageId, uint32_t> table_versions_;

  /// Generic durability waiters: fired once VDL reaches the key.
  std::multimap<Lsn, std::function<void()>> durable_waiters_;

  // Transactions.
  TxnId next_txn_ = 1;
  std::map<TxnId, std::unique_ptr<Txn>> txns_;
  /// Commit queue ordered by commit LSN (§4.2.2).
  std::map<Lsn, TxnId> commit_queue_;
  std::deque<std::function<void()>> backpressure_queue_;
  std::deque<TxnId> purge_queue_;

  // Write pipeline.
  std::map<PgId, PendingBatch> pending_batches_;
  uint64_t next_batch_seq_ = 1;
  std::map<uint64_t, std::unique_ptr<OutstandingBatch>> outstanding_;
  /// Known SCL per (pg, replica) from acks — read routing.
  std::map<std::pair<PgId, ReplicaIdx>, Lsn> replica_scl_;
  /// Cached membership per PG (see PgConfig).
  std::map<PgId, CachedConfig> pg_config_;

  // Read pipeline.
  RestartLoop restarts_{&pool_};
  std::map<PageId, uint64_t> fetch_in_flight_;  // page -> req id
  std::map<uint64_t, PendingRead> pending_reads_;
  uint64_t next_req_ = 1;

  // Replication.
  std::vector<sim::NodeId> replicas_;
  std::vector<LogRecord> replica_stream_buffer_;
  std::vector<std::pair<Lsn, uint64_t>> replica_commit_buffer_;
  std::map<sim::NodeId, Lsn> replica_read_points_;
  Lsn last_shipped_vdl_ = kInvalidLsn;
  PgId pgmrpl_cursor_ = 0;

  // Recovery.
  std::shared_ptr<RecoveryState> recovery_;
  std::function<void()> undo_complete_cb_;

  // Periodic-tick and ZDP timers; stored so Crash() can cancel them (the
  // generation guard neutralizes late firings, but a cancelled event also
  // releases its closure and its pending-queue slot immediately).
  sim::EventId pgmrpl_timer_ = 0;
  sim::EventId purge_timer_ = 0;
  sim::EventId ship_timer_ = 0;
  sim::EventId zdp_timer_ = 0;

  bool open_ = false;
  bool fenced_ = false;           // demoted by a newer volume epoch
  bool paused_ = false;           // ZDP engine swap in progress
  TxnId pause_watermark_ = 0;     // txns >= this are held during ZDP
  uint64_t generation_ = 0;
  Lsn last_broadcast_pgmrpl_ = kInvalidLsn;
  // Scratch state threaded through restart-loop attempts (single-threaded
  // event loop; one attempt runs at a time).
  Lsn durable_lsn_for_ddl_ = kInvalidLsn;
  uint32_t ddl_result_version_ = 0;
  bool purge_done_ = false;
  EngineStats stats_;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_DATABASE_H_
