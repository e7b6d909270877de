#ifndef AURORA_STORAGE_SIM_S3_H_
#define AURORA_STORAGE_SIM_S3_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/event_loop.h"

namespace aurora {

/// Simulated Amazon S3: a durable object store with high per-request latency
/// and effectively unlimited capacity. Used as the backup/restore sink
/// (Figure 4 step 6, §5) and the binlog archive of the mirrored-MySQL
/// baseline (Figure 2). Objects survive any node/AZ failure by construction.
///
/// Latency jitter is derived from (key, per-key op counter) rather than a
/// shared RNG stream, so a request's draw is a function of the request
/// itself, not of what other keys were touched before it.
class SimS3 {
 public:
  struct Options {
    SimDuration put_latency = Millis(20);
    SimDuration get_latency = Millis(15);
    double jitter_sigma = 0.4;
  };

  SimS3(sim::EventLoop* loop, Options options, Random rng)
      : loop_(loop), options_(options), seed_(rng.Next()) {}

  SimS3(const SimS3&) = delete;
  SimS3& operator=(const SimS3&) = delete;

  /// Stores `bytes` under `key` (overwrites), invoking `done` after the
  /// simulated round trip.
  void Put(const std::string& key, std::string bytes,
           std::function<void(Status)> done);

  /// Fetches the object; NotFound if absent.
  void Get(const std::string& key,
           std::function<void(Result<std::string>)> done);

  /// Synchronous existence/content check (control-plane use and tests).
  bool Contains(const std::string& key) const {
    return objects_.count(key) > 0;
  }
  Result<std::string> GetSync(const std::string& key) const;
  /// Objects whose key starts with `prefix`, in key order (restore scans).
  std::vector<std::string> ListKeys(const std::string& prefix) const;

  uint64_t num_objects() const { return objects_.size(); }
  uint64_t bytes_stored() const { return bytes_stored_; }
  uint64_t puts() const { return puts_; }
  uint64_t gets() const { return gets_; }

 private:
  /// Log-normal jitter seeded by (store seed, key bytes, per-key op index):
  /// deterministic for a given request sequence per key.
  SimDuration Latency(SimDuration base, const std::string& key,
                      uint64_t op_index);

  sim::EventLoop* loop_;
  Options options_;
  const uint64_t seed_;
  std::map<std::string, std::string> objects_;
  std::map<std::string, uint64_t> key_ops_;
  uint64_t bytes_stored_ = 0;
  uint64_t puts_ = 0;
  uint64_t gets_ = 0;
};

}  // namespace aurora

#endif  // AURORA_STORAGE_SIM_S3_H_
