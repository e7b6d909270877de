#ifndef AURORA_STORAGE_STORAGE_NODE_H_
#define AURORA_STORAGE_STORAGE_NODE_H_

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "sim/disk.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "storage/control_plane.h"
#include "storage/segment.h"
#include "storage/sim_s3.h"
#include "storage/wire.h"

namespace aurora {

/// Behavioural knobs of a storage host. Intervals implement the "move the
/// majority of storage processing to the background" tenet of §3.3.
struct StorageNodeOptions {
  sim::DiskOptions disk;
  SimDuration gossip_interval = Millis(100);
  SimDuration coalesce_interval = Millis(20);
  size_t coalesce_batch = 512;
  SimDuration gc_interval = Millis(200);
  SimDuration scrub_interval = Seconds(30);
  SimDuration backup_interval = Millis(500);
  size_t gossip_max_records = 1024;
  size_t backup_max_records = 4096;
  /// Background work is deferred while the disk backlog exceeds this —
  /// §3.3's negative correlation between background and foreground load.
  SimDuration background_backlog_limit = Millis(5);
  /// Ack batches without waiting for the disk (testing only; default off —
  /// the paper requires persistence before acknowledgement).
  bool unsafe_ack_before_persist = false;
  /// Per-segment byte budget for the reconstructed-page cache (§4.2.3:
  /// materialization is "simply a cache of the log application"). Applied to
  /// every segment this node creates or installs; 0 disables caching.
  uint64_t page_cache_budget_bytes = 4 * 1024 * 1024;
};

/// Counters for one storage host.
struct StorageNodeStats {
  uint64_t batches_received = 0;
  uint64_t records_received = 0;
  uint64_t acks_sent = 0;
  uint64_t page_reads_served = 0;
  uint64_t page_read_errors = 0;
  uint64_t gossip_rounds = 0;
  uint64_t gossip_records_sent = 0;
  uint64_t gossip_records_filled = 0;
  /// Full segment-state copies shipped because GC had already collected the
  /// records a straggling peer needed (gossip's state-transfer backstop).
  uint64_t gossip_state_transfers = 0;
  uint64_t records_coalesced = 0;
  uint64_t records_gced = 0;
  uint64_t scrub_rounds = 0;
  uint64_t pages_scrubbed = 0;
  uint64_t corrupt_pages_found = 0;
  uint64_t corrupt_pages_repaired = 0;
  /// Corrupt pages healed from a peer on the *read* path (a CRC mismatch
  /// surfaced by GetPageAsOf between scrub rounds).
  uint64_t read_repairs = 0;
  uint64_t backup_objects = 0;
  uint64_t background_deferrals = 0;
  uint64_t stale_epoch_rejects = 0;
  /// Frames NAKed because the sender's membership config epoch was behind
  /// this node's view (or the sender is no longer a member at all).
  uint64_t stale_config_rejects = 0;
  /// Writes the device completed torn (Status::Corruption): the batch is
  /// not applied and not acked, so the sender retries.
  uint64_t torn_write_drops = 0;
  /// Latent sector faults the device planted under this node's pages.
  uint64_t latent_corruptions = 0;
  /// Repair chunks dropped for a payload CRC mismatch (fabric corruption
  /// that slipped past the frame checksum).
  uint64_t repair_chunk_crc_drops = 0;
  /// Incoming chunked-repair transfers started on this node (as target).
  uint64_t repair_sessions_started = 0;
  /// Stray segments dropped after this node was evicted from a PG's
  /// membership (gossip-time cleanup).
  uint64_t evicted_segments_dropped = 0;
  /// Write batches already applied once and re-acked without re-applying
  /// (network duplicates / sender retries racing an in-flight ack).
  uint64_t duplicate_batches = 0;
  /// Frames that failed the fabric checksum at this node and were dropped.
  uint64_t corrupt_frames_dropped = 0;
  /// Records back-filled per gossip push integrated (hole-repair depth —
  /// how far behind this replica had fallen when gossip healed it).
  Histogram gossip_fill_batch;
};

/// A storage host: local SSD plus the eight-step I/O pipeline of Figure 4:
/// (1) receive a log-record batch into the in-memory queue, (2) persist on
/// disk and ACK, (3) organize records and identify gaps (Segment's chain),
/// (4) gossip with peers to fill holes, (5) coalesce log records into data
/// pages, (6) periodically stage log and pages to S3, (7) garbage collect
/// old versions, (8) periodically validate page CRCs.
/// Steps 1–2 are the only foreground work; everything else runs on timers
/// and yields to foreground load.
class StorageNode {
 public:
  StorageNode(sim::EventLoop* loop, sim::Network* network, sim::NodeId id,
              ControlPlane* control_plane, SimS3* s3,
              StorageNodeOptions options, Random rng);

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  sim::NodeId id() const { return id_; }

  /// Instantiates an (empty) segment replica for `pg`. Called lazily on
  /// first contact (EnsureSegment) and by tests that prefabricate state.
  void CreateSegment(PgId pg, size_t page_size);
  /// Lazy materialization: returns the hosted segment for `pg`, creating it
  /// (empty, at the volume's page size) iff this host is a member per the
  /// control plane. Null when not a member — stray traffic after a
  /// membership change must not resurrect a dropped replica.
  Segment* EnsureSegment(PgId pg);
  /// Installs the control plane's page synthesizer on all hosted segments.
  void InstallSynthesizerOnSegments(const Segment::PageSynthesizer& fn);
  void DropSegment(PgId pg);
  Segment* segment(PgId pg);
  const Segment* segment(PgId pg) const;
  size_t num_segments() const { return segments_.size(); }

  /// Crash-stop: in-flight (unpersisted) work is lost; segment state —
  /// which is persisted before every ACK — survives on disk.
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }

  const StorageNodeStats& stats() const { return stats_; }
  sim::Disk* disk() { return &disk_; }

  /// Reconstruction-cache counters summed across hosted segments.
  PageCacheStats PageCacheTotals() const;
  /// Current reconstruction-cache footprint across hosted segments.
  uint64_t PageCacheBytes() const;

  /// For the repair manager: serialized segment state bytes.
  uint64_t SegmentBytes(PgId pg) const;

  // --- Chunked repair (this node as the replacement target) -----------------
  /// What happened to an in-progress chunked transfer, reported to the
  /// repair manager via the progress callback.
  enum class RepairEvent : uint8_t {
    kChunk,      // one more chunk verified and buffered
    kMismatch,   // donor snapshot changed mid-copy; buffer reset to chunk 0
    kInstalled,  // whole blob verified and installed as this PG's segment
    kFailed,     // blob complete but failed verification or installation
  };
  struct RepairProgress {
    uint64_t req_id = 0;
    uint32_t chunk_index = 0;
    uint32_t total_chunks = 0;
    uint64_t total_bytes = 0;
    uint32_t blob_crc = 0;
    RepairEvent event = RepairEvent::kChunk;
  };
  /// Single manager-owned callback; per-repair routing happens in the
  /// manager keyed by (pg, req_id), so concurrent repairs targeting this
  /// node never clobber each other. Delivered as its own event, never from
  /// inside this node's message handler.
  using RepairProgressCallback =
      std::function<void(PgId, const RepairProgress&)>;
  void set_repair_progress_callback(RepairProgressCallback cb) {
    repair_progress_cb_ = std::move(cb);
  }
  /// Opens/abandons the reassembly buffer for one chunked transfer. The
  /// manager opens a session before requesting chunk 0 and aborts it when
  /// it gives up on the transfer; a crash of this node drops all sessions
  /// (the buffer is volatile until the final persist + install).
  void BeginRepairSession(PgId pg, uint64_t req_id);
  void AbortRepairSession(PgId pg, uint64_t req_id);

 private:
  void HandleMessage(const sim::Message& msg);
  void HandleWriteBatch(const sim::Message& msg);
  void HandleReadPage(const sim::Message& msg);
  void HandleInventory(const sim::Message& msg);
  void HandleTruncate(const sim::Message& msg);
  void HandlePgmrpl(const sim::Message& msg);
  void HandleGossipPull(const sim::Message& msg);
  void HandleGossipPush(const sim::Message& msg);
  void HandleSegmentStateReq(const sim::Message& msg);
  void HandleSegmentStateResp(const sim::Message& msg);
  void HandleSegmentChunkReq(const sim::Message& msg);
  void HandleSegmentChunkResp(const sim::Message& msg);

  /// Installs a serialized segment copy if it is a superset of local state
  /// (shared by the one-shot state transfer and the chunked repair path).
  /// Returns false when the copy was rejected or malformed.
  bool InstallSegmentCopy(PgId pg, Slice state);
  /// Runs `fn` as its own event at the current time; Crash() cancels it.
  void Defer(sim::EventFn fn);
  /// Posts a repair progress event to the manager as its own event.
  void NotifyRepairProgress(PgId pg, RepairProgress progress);
  /// Heals one corrupt base page from a live peer in a separate event
  /// (shared by the scrubber and the read path).
  void SchedulePeerPageRepair(PgId pg, PageId page);

  void ScheduleBackgroundTasks();
  void GossipTick();
  void CoalesceTick();
  void GcTick();
  void ScrubTick();
  void BackupTick();
  /// True when foreground load should defer background work (§3.3).
  bool Busy() const;

  sim::EventLoop* loop_;
  sim::Network* network_;
  sim::NodeId id_;
  ControlPlane* control_plane_;
  SimS3* s3_;
  StorageNodeOptions options_;
  Random rng_;
  sim::Disk disk_;

  std::map<PgId, std::unique_ptr<Segment>> segments_;
  RepairProgressCallback repair_progress_cb_;
  /// Reassembly state of one incoming chunked transfer, keyed (pg, req_id).
  struct RepairSession {
    std::string buffer;
    uint32_t chunks_received = 0;
    bool meta_known = false;
    uint32_t total_chunks = 0;
    uint64_t total_bytes = 0;
    uint32_t blob_crc = 0;
  };
  std::map<std::pair<PgId, uint64_t>, RepairSession> repair_sessions_;
  /// Donor-side snapshot cache: chunk requests for the same (pg, req_id)
  /// are served from one consistent SerializeTo blob, so a transfer never
  /// mixes bytes from two different segment states. Bounded; oldest entry
  /// evicted (the orphaned transfer restarts via the geometry mismatch).
  struct DonorSnapshot {
    std::string blob;
    uint32_t blob_crc = 0;
  };
  std::map<std::pair<PgId, uint64_t>, DonorSnapshot> donor_snapshots_;
  std::vector<std::pair<PgId, uint64_t>> donor_snapshot_order_;
  StorageNodeStats stats_;
  /// Write batches fully applied (persisted + integrated), keyed per PG as
  /// batch_seq -> epoch. Consulted on receipt so a duplicated or retried
  /// batch is re-acked without re-persisting; marked only after the disk
  /// write completes (marking at receipt could ack a retry whose records a
  /// crash just lost). Volatile — cleared on Crash(), which is safe because
  /// re-applying a batch after restart is idempotent (AddRecord dedups).
  std::map<PgId, std::map<uint64_t, Epoch>> applied_batches_;
  /// Outstanding background timers, cancelled on Crash() so repeated
  /// crash/restart cycles don't leak dead events in the loop (the
  /// generation guard already makes them no-ops).
  sim::EventId gossip_timer_ = 0;
  sim::EventId coalesce_timer_ = 0;
  sim::EventId gc_timer_ = 0;
  sim::EventId scrub_timer_ = 0;
  sim::EventId backup_timer_ = 0;
  /// Pending Defer() events, keyed by a running count; cancelled on Crash().
  std::map<uint64_t, sim::EventId> deferred_;
  uint64_t next_deferred_ = 0;
  bool crashed_ = false;
  /// Bumped on every crash; stale async callbacks (disk completions from
  /// before the crash) check it and become no-ops.
  uint64_t generation_ = 0;
};

}  // namespace aurora

#endif  // AURORA_STORAGE_STORAGE_NODE_H_
