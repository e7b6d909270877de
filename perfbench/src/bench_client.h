#ifndef PERFBENCH_BENCH_CLIENT_H_
#define PERFBENCH_BENCH_CLIENT_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/client_api.h"
#include "harness/synthetic_table.h"
#include "sim/event_loop.h"

namespace perfbench {

using aurora::PageId;
using aurora::Result;
using aurora::SimTime;
using aurora::Status;
using aurora::TxnId;

inline uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One client call (or a whole transaction) as the trace records it:
/// virtual start and end, plus the wall time spent inside the engine call.
struct Span {
  enum Op : uint8_t { kTxn, kGet, kPut, kCommit };
  TxnId txn = 0;
  Op op = kTxn;
  bool ok = true;
  SimTime start = 0;
  SimTime end = 0;
  uint64_t wall_ns = 0;
};

/// ClientApi decorator between SysbenchDriver and the engine. It
///  - times each engine entry call in wall-clock (exclusive of engine calls
///    made from callbacks that fire synchronously inside it);
///  - records virtual latencies of the reads, commits and transactions that
///    begin inside the measured window;
///  - counts attempted and failed transactions itself, and the ones still
///    open when the window closes;
///  - makes every written value unique and remembers, per key, the value of
///    the last acknowledged commit, for the durability check;
///  - optionally checks every read against the synthetic table contents;
///  - optionally keeps one span per transaction and per call.
class BenchClient : public aurora::ClientApi {
 public:
  struct CallStats {
    uint64_t calls = 0;
    uint64_t wall_ns = 0;
  };

  BenchClient(aurora::ClientApi* inner, aurora::sim::EventLoop* loop,
              const aurora::SyntheticTableLayout* check_reads_against,
              bool keep_spans)
      : inner_(inner),
        loop_(loop),
        layout_(check_reads_against),
        keep_spans_(keep_spans) {}

  void OpenWindow() { window_open_ = true; }
  /// Counts the transactions begun in the window and not yet finished. They
  /// still run to their outcome during the drain, which decides whether
  /// they fail.
  void CloseWindow() {
    window_open_ = false;
    for (const auto& [id, t] : txns_) {
      if (t.in_window) ++unfinished_at_close_;
    }
  }

  TxnId Begin() override {
    TxnId id = inner_->Begin();
    Txn& t = txns_[id];
    t.begin = loop_->now();
    t.in_window = window_open_;
    if (t.in_window) ++attempted_;
    return id;
  }

  void Put(TxnId txn, PageId table, const std::string& key,
           const std::string& value,
           std::function<void(Status)> done) override {
    std::string unique = UniqueValue(value.size());
    SimTime start = loop_->now();
    bool sample = window_open_;
    Timed(&put_, txn, Span::kPut, start, [&](size_t span) {
      inner_->Put(txn, table, key, unique,
                  [this, txn, key, unique, span, sample,
                   done = std::move(done)](Status s) {
                    EndSpan(span, s.ok());
                    if (s.ok()) {
                      Txn* t = Find(txn);
                      if (t != nullptr) t->writes.emplace_back(key, unique);
                      if (sample) user_bytes_ += key.size() + unique.size();
                    } else {
                      Fail(txn);
                    }
                    done(s);
                  });
    });
  }

  void Get(TxnId txn, PageId table, const std::string& key,
           std::function<void(Result<std::string>)> done) override {
    SimTime start = loop_->now();
    bool sample = window_open_;
    Timed(&get_, txn, Span::kGet, start, [&](size_t span) {
      inner_->Get(txn, table, key,
                  [this, txn, key, span, start, sample,
                   done = std::move(done)](Result<std::string> r) {
                    EndSpan(span, r.ok());
                    if (sample) read_us_.push_back(loop_->now() - start);
                    if (r.ok()) {
                      CheckRead(key, *r);
                    } else if (!r.status().IsNotFound()) {
                      Fail(txn);
                    }
                    done(std::move(r));
                  });
    });
  }

  void Delete(TxnId txn, PageId table, const std::string& key,
              std::function<void(Status)> done) override {
    inner_->Delete(txn, table, key, std::move(done));
  }

  void Commit(TxnId txn, std::function<void(Status)> done) override {
    SimTime start = loop_->now();
    bool sample = window_open_;
    Timed(&commit_, txn, Span::kCommit, start, [&](size_t span) {
      inner_->Commit(txn, [this, txn, span, start, sample,
                           done = std::move(done)](Status s) {
        EndSpan(span, s.ok());
        if (sample) commit_us_.push_back(loop_->now() - start);
        if (s.ok()) {
          Committed(txn);
        } else {
          Fail(txn);
        }
        done(s);
      });
    });
  }

  void Rollback(TxnId txn, std::function<void(Status)> done) override {
    inner_->Rollback(txn, [this, txn, done = std::move(done)](Status s) {
      Fail(txn);
      done(s);
    });
  }

  void SetActiveConnections(int n) override { inner_->SetActiveConnections(n); }

  // --- Results ---------------------------------------------------------------
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t unfinished_at_close() const { return unfinished_at_close_; }
  /// Transactions begun in the window that did not commit before it closed:
  /// they failed in it or were still open at the close.
  uint64_t uncommitted_at_close() const {
    return attempted_ - window_txns_committed_in_window_;
  }
  uint64_t commits_in_window() const { return commits_in_window_; }
  uint64_t read_mismatches() const { return read_mismatches_; }
  uint64_t user_bytes() const { return user_bytes_; }
  const std::vector<uint64_t>& read_us() const { return read_us_; }
  const std::vector<uint64_t>& commit_us() const { return commit_us_; }
  const std::vector<uint64_t>& txn_us() const { return txn_us_; }
  const CallStats& get_stats() const { return get_; }
  const CallStats& put_stats() const { return put_; }
  const CallStats& commit_stats() const { return commit_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Last acknowledged committed value of every key ever written.
  const std::map<std::string, std::string>& acked() const { return acked_; }

 private:
  struct Txn {
    SimTime begin = 0;
    bool in_window = false;
    std::vector<std::pair<std::string, std::string>> writes;
  };

  Txn* Find(TxnId id) {
    auto it = txns_.find(id);
    return it == txns_.end() ? nullptr : &it->second;
  }

  /// Runs `call` (one engine entry) and charges its wall time, minus that of
  /// engine calls nested inside it, to `stats`.
  template <typename F>
  void Timed(CallStats* stats, TxnId txn, Span::Op op, SimTime start,
             F&& call) {
    size_t span = SIZE_MAX;
    if (keep_spans_ && window_open_) {
      span = spans_.size();
      spans_.push_back(Span{txn, op, true, start, start, 0});
    }
    nested_.push_back(0);
    uint64_t t0 = WallNs();
    call(span);
    uint64_t inclusive = WallNs() - t0;
    uint64_t exclusive = inclusive - nested_.back();
    nested_.pop_back();
    if (!nested_.empty()) nested_.back() += inclusive;
    if (window_open_) {
      ++stats->calls;
      stats->wall_ns += exclusive;
    }
    if (span != SIZE_MAX) spans_[span].wall_ns = exclusive;
  }

  void EndSpan(size_t span, bool ok) {
    if (span == SIZE_MAX) return;
    spans_[span].end = loop_->now();
    spans_[span].ok = ok;
  }

  void Finish(TxnId id, bool ok) {
    auto it = txns_.find(id);
    if (it == txns_.end()) return;
    Txn& t = it->second;
    if (t.in_window) txn_us_.push_back(loop_->now() - t.begin);
    if (keep_spans_ && t.in_window) {
      spans_.push_back(Span{id, Span::kTxn, ok, t.begin, loop_->now(), 0});
    }
    txns_.erase(it);
  }

  void Committed(TxnId id) {
    Txn* t = Find(id);
    if (t == nullptr) return;
    for (auto& [key, value] : t->writes) acked_[key] = std::move(value);
    if (window_open_) {
      ++commits_in_window_;
      if (t->in_window) ++window_txns_committed_in_window_;
    }
    Finish(id, true);
  }

  void Fail(TxnId id) {
    Txn* t = Find(id);
    if (t == nullptr) return;
    if (t->in_window) ++failed_;
    Finish(id, false);
  }

  void CheckRead(const std::string& key, const std::string& value) {
    if (layout_ == nullptr) return;
    // Keys are "key" + 16 decimal digits (SyntheticTableLayout::KeyOf).
    uint64_t row = std::stoull(key.substr(3));
    if (value != layout_->UserValueOf(row)) ++read_mismatches_;
  }

  std::string UniqueValue(size_t size) {
    char tag[32];
    int n = snprintf(tag, sizeof(tag), "w%llu-",
                     static_cast<unsigned long long>(++write_seq_));
    std::string v(tag, static_cast<size_t>(n));
    v.resize(std::max(size, v.size()), 'x');
    return v;
  }

  aurora::ClientApi* inner_;
  aurora::sim::EventLoop* loop_;
  const aurora::SyntheticTableLayout* layout_;
  bool keep_spans_;
  bool window_open_ = false;

  std::map<TxnId, Txn> txns_;
  std::map<std::string, std::string> acked_;
  uint64_t write_seq_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t unfinished_at_close_ = 0;
  uint64_t window_txns_committed_in_window_ = 0;
  uint64_t commits_in_window_ = 0;
  uint64_t read_mismatches_ = 0;
  uint64_t user_bytes_ = 0;
  std::vector<uint64_t> read_us_;
  std::vector<uint64_t> commit_us_;
  std::vector<uint64_t> txn_us_;
  CallStats get_, put_, commit_;
  std::vector<uint64_t> nested_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CLIENT_H_
