#include "storage/sim_s3.h"

namespace aurora {

namespace {

// FNV-1a over the key bytes: a stable, portable hash (std::hash would tie
// the jitter to the standard library implementation).
uint64_t HashKey(const std::string& key) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

SimDuration SimS3::Latency(SimDuration base, const std::string& key,
                           uint64_t op_index) {
  Random draw(seed_ ^ HashKey(key) ^ (op_index * 0x9E3779B97F4A7C15ull));
  return static_cast<SimDuration>(
      static_cast<double>(base) * draw.LogNormal(1.0, options_.jitter_sigma));
}

void SimS3::Put(const std::string& key, std::string bytes,
                std::function<void(Status)> done) {
  ++puts_;
  const SimDuration latency =
      Latency(options_.put_latency, key, key_ops_[key]++);
  auto it = objects_.find(key);
  if (it != objects_.end()) bytes_stored_ -= it->second.size();
  bytes_stored_ += bytes.size();
  objects_[key] = std::move(bytes);
  loop_->Schedule(latency, [done = std::move(done)]() { done(Status::OK()); });
}

void SimS3::Get(const std::string& key,
                std::function<void(Result<std::string>)> done) {
  ++gets_;
  const SimDuration latency =
      Latency(options_.get_latency, key, key_ops_[key]++);
  Result<std::string> result = Status::NotFound("no such object");
  auto it = objects_.find(key);
  if (it != objects_.end()) result = it->second;
  loop_->Schedule(latency, [done = std::move(done),
                            result = std::move(result)]() mutable {
    done(std::move(result));
  });
}

Result<std::string> SimS3::GetSync(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return Status::NotFound("no such object");
  return it->second;
}

std::vector<std::string> SimS3::ListKeys(const std::string& prefix) const {
  std::vector<std::string> keys;
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    keys.push_back(it->first);
  }
  return keys;
}

}  // namespace aurora
