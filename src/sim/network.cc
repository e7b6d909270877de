#include "sim/network.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/logging.h"

namespace aurora::sim {

namespace {
std::pair<NodeId, NodeId> Ordered(NodeId a, NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}
}  // namespace

void Network::Register(NodeId node, Handler handler) {
  if (handlers_.size() <= node) {
    handlers_.resize(node + 1);
    stats_.resize(node + 1);
    nic_busy_until_.resize(node + 1, 0);
    latency_factor_.resize(node + 1, 1.0);
  }
  handlers_[node] = std::move(handler);
}

void Network::ForkNodeRngStreams(NodeId num_nodes) {
  node_rng_.clear();
  node_rng_.reserve(num_nodes);
  for (NodeId i = 0; i < num_nodes; ++i) node_rng_.push_back(rng_.Fork());
}

Random& Network::RngFor(NodeId from) {
  if (node_rng_.empty()) return rng_;
  AURORA_CHECK(from < node_rng_.size(), "send from a node without a stream");
  return node_rng_[from];
}

bool Network::Reachable(NodeId from, NodeId to) const {
  if (down_nodes_.count(from) || down_nodes_.count(to)) return false;
  if (down_azs_.count(topology_->az_of(from)) ||
      down_azs_.count(topology_->az_of(to))) {
    return false;
  }
  if (partitions_.count(Ordered(from, to))) return false;
  if (oneway_partitions_.count({from, to})) return false;
  return true;
}

double Network::LatencyFactor(NodeId n) const {
  return n < latency_factor_.size() ? latency_factor_[n] : 1.0;
}

SimDuration Network::PropagationDelay(NodeId from, NodeId to) {
  SimDuration base;
  if (from == to) {
    base = options_.same_node_latency;
  } else if (topology_->SameAz(from, to)) {
    base = options_.intra_az_latency;
  } else {
    base = options_.cross_az_latency;
  }
  // Heavy-tailed jitter: multiply by a log-normal factor with median 1.
  double jitter = RngFor(from).LogNormal(1.0, options_.jitter_sigma);
  double factor = LatencyFactor(from) * LatencyFactor(to);
  auto d = static_cast<SimDuration>(static_cast<double>(base) * jitter * factor);
  // Floor at a quarter of the undisturbed base latency. With sigma 0.25 the
  // jitter binds here with probability ~2e-8 (a -5.5 sigma draw), so the
  // latency distribution is unchanged in practice, and no delivery is ever
  // scheduled at (or before) its send time.
  return std::max<SimDuration>(d, std::max<SimDuration>(1, base / 4));
}

void Network::Send(NodeId from, NodeId to, uint16_t type,
                   std::string payload) {
  SendImpl(from, to, type, std::move(payload), nullptr);
}

void Network::Send(NodeId from, NodeId to, uint16_t type, std::string header,
                   std::shared_ptr<const std::string> body) {
  SendImpl(from, to, type, std::move(header), std::move(body));
}

void Network::SendImpl(NodeId from, NodeId to, uint16_t type,
                       std::string header,
                       std::shared_ptr<const std::string> body) {
  if (from >= handlers_.size()) Register(from, nullptr);
  if (to >= handlers_.size()) Register(to, nullptr);

  Random& rng = RngFor(from);

  const size_t wire_bytes = header.size() + (body ? body->size() : 0);
  NetStats& s = stats_[from];
  s.messages_sent++;
  s.bytes_sent += wire_bytes;
  s.packets_sent += 1 + wire_bytes / options_.mtu_bytes;

  // NIC serialization: a sender transmits one message at a time at the NIC's
  // line rate; concurrent sends queue behind each other. This happens before
  // any loss decision — a message dropped in transit (or addressed to a dead
  // host) still occupied the sender's NIC, so lossy links don't grant the
  // sender free bandwidth.
  SimTime start = std::max(loop_->now(), nic_busy_until_[from]);
  auto transmit = static_cast<SimDuration>(
      static_cast<double>(wire_bytes) / options_.node_bandwidth_bps * 1e6);
  nic_busy_until_[from] = start + transmit;

  if (!Reachable(from, to) || rng.Bernoulli(drop_probability_)) {
    if (oneway_partitions_.count({from, to})) adversary_.oneway_blocked++;
    s.messages_dropped++;
    return;
  }

  SimTime deliver_at = start + transmit + PropagationDelay(from, to);

  Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = type;
  msg.header = std::move(header);
  msg.body = std::move(body);
  msg.sent_at = loop_->now();
  // Frame checksum, stamped before any adversarial corruption so receivers
  // can tell a mangled frame from a clean one.
  msg.frame_crc = crc32c::Value(msg.header.data(), msg.header.size());
  if (msg.body) {
    msg.frame_crc =
        crc32c::Extend(msg.frame_crc, msg.body->data(), msg.body->size());
  }

  // Adversary: bit-flip corruption. The body fragment may be shared with
  // other in-flight fan-out copies, so corruption first materializes a
  // private single-fragment payload — never mutate the shared body.
  if (rng.Bernoulli(corrupt_probability_) && wire_bytes > 0) {
    if (msg.body) {
      msg.header.append(*msg.body);
      msg.body.reset();
    }
    uint64_t bit = rng.Uniform(msg.header.size() * 8);
    msg.header[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    adversary_.corrupted_injected++;
  }

  // Adversary: bounded reordering — an extra uniform delay lets messages
  // inside the window overtake each other.
  if (reorder_window_ > 0) {
    SimDuration extra = rng.UniformRange(0, reorder_window_);
    if (extra > 0) {
      deliver_at += extra;
      adversary_.reordered++;
    }
  }

  // Adversary: duplication. The copy shares the refcounted body and gets an
  // independently drawn delivery time, so it can arrive before the original.
  if (rng.Bernoulli(duplicate_probability_)) {
    SimTime dup_at = start + transmit + PropagationDelay(from, to);
    if (reorder_window_ > 0) dup_at += rng.UniformRange(0, reorder_window_);
    adversary_.duplicates_injected++;
    ScheduleDelivery(dup_at, msg);
  }

  ScheduleDelivery(deliver_at, std::move(msg));
}

void Network::ScheduleDelivery(SimTime at, Message msg) {
  // The delivery closure carries the message fragments as-is: the shared
  // body is never copied per receiver, and the whole capture fits EventFn's
  // inline buffer (no allocation per message in steady state).
  loop_->ScheduleAt(at, [this, msg = std::move(msg)]() {
    // Re-check reachability at delivery time: a crash while the message
    // was in flight loses it.
    if (!Reachable(msg.from, msg.to)) {
      if (oneway_partitions_.count({msg.from, msg.to})) {
        adversary_.oneway_blocked++;
      }
      return;
    }
    if (msg.to >= handlers_.size() || !handlers_[msg.to]) return;
    stats_[msg.to].messages_received++;
    handlers_[msg.to](msg);
  });
}

bool Network::VerifyFrame(const Message& msg) {
  uint32_t crc = crc32c::Value(msg.header.data(), msg.header.size());
  if (msg.body) crc = crc32c::Extend(crc, msg.body->data(), msg.body->size());
  if (crc == msg.frame_crc) return true;
  adversary_.corrupted_dropped++;
  return false;
}

void Network::SetNodeDown(NodeId node, bool down) {
  if (down) {
    down_nodes_.insert(node);
  } else {
    down_nodes_.erase(node);
  }
}

void Network::SetAzDown(AzId az, bool down) {
  if (down) {
    down_azs_.insert(az);
  } else {
    down_azs_.erase(az);
  }
}

void Network::SetPartitioned(NodeId a, NodeId b, bool blocked) {
  if (blocked) {
    partitions_.insert(Ordered(a, b));
  } else {
    partitions_.erase(Ordered(a, b));
  }
}

void Network::SetPartitionedOneWay(NodeId from, NodeId to, bool blocked) {
  if (blocked) {
    oneway_partitions_.insert({from, to});
  } else {
    oneway_partitions_.erase({from, to});
  }
}

void Network::SetNodeLatencyFactor(NodeId node, double factor) {
  if (node >= latency_factor_.size()) Register(node, nullptr);
  latency_factor_[node] = factor;
}

const NetStats& Network::stats_of(NodeId node) const {
  static const NetStats kEmpty;
  return node < stats_.size() ? stats_[node] : kEmpty;
}

NetStats Network::total() const {
  NetStats t;
  for (const NetStats& s : stats_) {
    t.messages_sent += s.messages_sent;
    t.messages_received += s.messages_received;
    t.packets_sent += s.packets_sent;
    t.bytes_sent += s.bytes_sent;
    t.messages_dropped += s.messages_dropped;
  }
  return t;
}

void Network::ResetStats() {
  std::fill(stats_.begin(), stats_.end(), NetStats{});
}

}  // namespace aurora::sim
