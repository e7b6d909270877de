#ifndef AURORA_SIM_NETWORK_H_
#define AURORA_SIM_NETWORK_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/units.h"
#include "sim/event_loop.h"
#include "sim/topology.h"

namespace aurora::sim {

/// A message in flight between simulated hosts. Payloads are real serialized
/// bytes so that byte/packet accounting (the paper's PPS and bandwidth
/// bottlenecks, §1 and §3) reflects genuine wire sizes.
///
/// The payload is stored as two fragments: a small per-destination `header`
/// owned by the message, plus an optional refcounted `body` shared by every
/// copy in a fan-out (the sender serializes it once; delivery never copies
/// it). Receivers read through `payload()`, which is zero-copy whenever the
/// bytes live in one fragment; two-fragment consumers (the write batch path)
/// decode each fragment in place instead.
struct Message {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  uint16_t type = 0;
  std::string header;
  std::shared_ptr<const std::string> body;
  SimTime sent_at = 0;
  /// CRC32C over header+body, stamped by the fabric at send time (before any
  /// adversarial corruption). Receivers verify via Network::VerifyFrame so a
  /// bit-flipped frame is dropped before it reaches a decoder.
  uint32_t frame_crc = 0;

  size_t payload_size() const {
    return header.size() + (body ? body->size() : 0);
  }

  /// View of the full header+body byte stream. Zero-copy when the payload is
  /// a single fragment (every message except fan-out sends with a non-empty
  /// header); otherwise the concatenation is materialized once per message
  /// and cached.
  Slice payload() const {
    if (!body) return Slice(header);
    if (header.empty()) return Slice(*body);
    if (!joined_) {
      auto j = std::make_shared<std::string>();
      j->reserve(header.size() + body->size());
      j->append(header);
      j->append(*body);
      joined_ = std::move(j);
    }
    return Slice(*joined_);
  }

  /// The two raw fragments, for consumers that can decode them in place
  /// (WriteBatchMsg::DecodeFrom(head, body)) without ever joining.
  Slice head() const { return Slice(header); }
  Slice body_view() const { return body ? Slice(*body) : Slice(); }

 private:
  mutable std::shared_ptr<std::string> joined_;  // cow cache for payload()
};

/// Per-node network counters.
struct NetStats {
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  uint64_t packets_sent = 0;  // payloads fragmented at MTU granularity
  uint64_t bytes_sent = 0;
  uint64_t messages_dropped = 0;
};

/// Fabric-wide adversary counters (surfaced as net.adversary.*). All zero
/// unless the corresponding knob is enabled.
struct AdversaryStats {
  uint64_t duplicates_injected = 0;  // extra deliveries scheduled
  uint64_t reordered = 0;            // deliveries given scramble delay
  uint64_t corrupted_injected = 0;   // frames bit-flipped in transit
  uint64_t corrupted_dropped = 0;    // rejected by VerifyFrame
  uint64_t oneway_blocked = 0;       // eaten by a one-way cut
};

/// The region's network fabric: delivers messages between registered hosts
/// with topology-dependent latency, log-normal jitter, per-NIC bandwidth
/// serialization, and fault injection (node down, AZ down, pairwise
/// partition, random drop).
class Network {
 public:
  /// Receive callback. Inline storage sized for the capture lists of the
  /// per-node dispatchers (typically just a `this` pointer or a couple of
  /// words); larger captures fall back to the heap at Register() time only.
  using Handler = InlineFunction<void(const Message&), 64>;

  Network(EventLoop* loop, const Topology* topology, FabricOptions options,
          Random rng)
      : loop_(loop), topology_(topology), options_(options), rng_(rng) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Installs the receive handler for `node`. A node without a handler drops
  /// everything addressed to it.
  void Register(NodeId node, Handler handler);

  /// Gives each of nodes [0, num_nodes) a private RNG stream, forked in node
  /// order from the fabric seed, so jitter and adversary draws depend only
  /// on that node's own send sequence. Call once, after the topology is
  /// complete and before the run starts; without it every send draws from
  /// the one fabric stream.
  void ForkNodeRngStreams(NodeId num_nodes);

  /// Sends `payload` from `from` to `to`. Delivery is asynchronous; the
  /// message is silently dropped if either endpoint is down/partitioned at
  /// send or delivery time (crash-stop semantics — senders learn about loss
  /// only through their own timeouts, as in the real system).
  void Send(NodeId from, NodeId to, uint16_t type, std::string payload);

  /// Shared-payload variant for fan-out: the refcounted `body` is shared by
  /// every in-flight copy (the sender serializes it once), while the small
  /// per-destination `header` is owned per message. Receivers see a single
  /// contiguous payload of header + body, byte-identical to the plain Send —
  /// only the sender-side cost model changes (no per-replica re-encode).
  /// Byte/packet accounting covers header + body, as on a real wire.
  void Send(NodeId from, NodeId to, uint16_t type, std::string header,
            std::shared_ptr<const std::string> body);

  // --- Fault injection ---------------------------------------------------
  void SetNodeDown(NodeId node, bool down);
  bool IsNodeDown(NodeId node) const { return down_nodes_.count(node) > 0; }
  void SetAzDown(AzId az, bool down);
  bool IsAzDown(AzId az) const { return down_azs_.count(az) > 0; }
  /// Blocks (or unblocks) traffic between two specific nodes, both ways.
  void SetPartitioned(NodeId a, NodeId b, bool blocked);
  /// Blocks (or unblocks) traffic in one direction only: `from` can no longer
  /// reach `to`, but replies still flow. Models asymmetric network faults
  /// (grey failures / half-open links) — the nastiest partition shape for a
  /// lease-free writer, since it keeps receiving while its sends die.
  void SetPartitionedOneWay(NodeId from, NodeId to, bool blocked);
  /// Probability in [0,1] that any message is lost in transit.
  void set_drop_probability(double p) { drop_probability_ = p; }

  // --- Adversary knobs (all seeded-deterministic; zero RNG draws when off) -
  /// Probability in [0,1] that a delivered message is delivered twice, the
  /// copy at an independently drawn time (so the duplicate may arrive before
  /// or long after the original).
  void set_duplicate_probability(double p) { duplicate_probability_ = p; }
  /// Extra uniform [0, window] delay added per delivery: messages inside the
  /// window overtake each other, giving bounded reordering. 0 disables.
  void set_reorder_window(SimDuration window) { reorder_window_ = window; }
  /// Probability in [0,1] that a frame has one random payload bit flipped in
  /// transit. The frame checksum (stamped pre-corruption) lets receivers
  /// detect and drop such frames.
  void set_corrupt_probability(double p) { corrupt_probability_ = p; }

  /// Recomputes `msg`'s frame checksum; on mismatch counts the frame in
  /// adversary().corrupted_dropped and returns false. Every receiver calls
  /// this before decoding.
  bool VerifyFrame(const Message& msg);

  /// Multiplies delivery latency for all traffic to/from `node` (slow node /
  /// hot spot modelling); 1.0 restores normal speed.
  void SetNodeLatencyFactor(NodeId node, double factor);

  // --- Stats --------------------------------------------------------------
  const NetStats& stats_of(NodeId node) const;
  NetStats total() const;
  void ResetStats();
  const AdversaryStats& adversary() const { return adversary_; }

  const FabricOptions& options() const { return options_; }

 private:
  void SendImpl(NodeId from, NodeId to, uint16_t type, std::string header,
                std::shared_ptr<const std::string> body);
  void ScheduleDelivery(SimTime at, Message msg);
  /// Directional: `from` can currently get a packet to `to`.
  bool Reachable(NodeId from, NodeId to) const;
  SimDuration PropagationDelay(NodeId from, NodeId to);
  double LatencyFactor(NodeId n) const;
  /// RNG stream for sends from `from` (per-node after ForkNodeRngStreams).
  Random& RngFor(NodeId from);

  EventLoop* loop_;
  const Topology* topology_;
  FabricOptions options_;
  Random rng_;

  std::vector<Random> node_rng_;  // empty: every send draws from rng_

  std::vector<Handler> handlers_;
  std::vector<NetStats> stats_;
  std::vector<SimTime> nic_busy_until_;
  std::vector<double> latency_factor_;

  std::set<NodeId> down_nodes_;
  std::set<AzId> down_azs_;
  std::set<std::pair<NodeId, NodeId>> partitions_;
  std::set<std::pair<NodeId, NodeId>> oneway_partitions_;  // (from, to)
  double drop_probability_ = 0.0;

  double duplicate_probability_ = 0.0;
  SimDuration reorder_window_ = 0;
  double corrupt_probability_ = 0.0;
  AdversaryStats adversary_;
};

}  // namespace aurora::sim

#endif  // AURORA_SIM_NETWORK_H_
