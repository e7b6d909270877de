#include "workload/sysbench.h"

namespace aurora {

SysbenchDriver::SysbenchDriver(sim::EventLoop* loop, ClientApi* client,
                               PageId table, SysbenchOptions options)
    : loop_(loop),
      client_(client),
      table_(table),
      options_(options),
      zipf_(options.table_rows, options.zipf_theta) {
  Random seeder(options_.seed);
  for (int i = 0; i < options_.connections; ++i) {
    connections_.push_back(std::make_unique<Connection>(seeder.Next()));
  }
}

uint64_t SysbenchDriver::PickRow(Connection* c) {
  if (options_.zipf_theta > 0) return zipf_.Sample(&c->rng);
  return c->rng.Uniform(options_.table_rows);
}

void SysbenchDriver::EnableIntervalMetrics(const MetricsRegistry* registry,
                                           SimDuration interval) {
  metrics_registry_ = registry;
  metrics_interval_ = interval;
}

void SysbenchDriver::MetricsTick() {
  if (!windows_active_) return;
  MetricsSnapshot now = metrics_registry_->Snapshot();
  metric_windows_.push_back(now.Diff(metrics_base_));
  metrics_base_ = std::move(now);
  loop_->Schedule(metrics_interval_, [this] { MetricsTick(); });
}

void SysbenchDriver::Run(std::function<void()> done) {
  done_ = std::move(done);
  client_->SetActiveConnections(options_.connections);
  loop_->Schedule(options_.warmup, [this] {
    measuring_ = true;
    measure_start_ = loop_->now();
    results_ = WorkloadResults{};
  });
  loop_->Schedule(options_.warmup + options_.duration, [this] {
    measuring_ = false;
    stopping_ = true;
    results_.measured = loop_->now() - measure_start_;
    MaybeFinish();
  });
  if (metrics_registry_ != nullptr && metrics_interval_ > 0) {
    loop_->Schedule(options_.warmup, [this] {
      metrics_base_ = metrics_registry_->Snapshot();
      windows_active_ = true;
      loop_->Schedule(metrics_interval_, [this] { MetricsTick(); });
    });
    // Scheduled before any tick, so at an exact interval boundary this
    // runs first: it captures the final (possibly partial) window and the
    // same-time tick then no-ops on !windows_active_.
    loop_->Schedule(options_.warmup + options_.duration, [this] {
      if (!windows_active_) return;
      metric_windows_.push_back(
          metrics_registry_->Snapshot().Diff(metrics_base_));
      windows_active_ = false;
    });
  }
  for (int i = 0; i < options_.connections; ++i) {
    StartTxn(i);
  }
}

void SysbenchDriver::MaybeFinish() {
  if (stopping_ && in_flight_ == 0 && done_) {
    auto done = std::move(done_);
    done_ = nullptr;
    done();
  }
}

void SysbenchDriver::StartTxn(int conn) {
  if (stopping_) {
    MaybeFinish();
    return;
  }
  ++in_flight_;
  TxnId txn = client_->Begin();
  int reads = 0, writes = 0;
  switch (options_.mode) {
    case SysbenchOptions::Mode::kReadOnly:
      reads = options_.point_selects;
      break;
    case SysbenchOptions::Mode::kWriteOnly:
      writes = options_.index_updates;
      break;
    case SysbenchOptions::Mode::kOltp:
      reads = options_.point_selects;
      writes = options_.index_updates;
      break;
  }
  NextStatement(conn, txn, reads, writes, loop_->now());
}

void SysbenchDriver::NextStatement(int conn, TxnId txn, int reads_left,
                                   int writes_left, SimTime started) {
  Connection* c = connections_[conn].get();
  if (reads_left == 0 && writes_left == 0) {
    client_->Commit(txn, [this, conn, txn, started](Status s) {
      FinishTxn(conn, txn, started, !s.ok());
    });
    return;
  }
  // Interleave: reads first, then writes (sysbench executes selects before
  // the update section).
  if (reads_left > 0) {
    uint64_t row = PickRow(c);
    client_->Get(txn, table_, SyntheticTableLayout::KeyOf(row),
                 [this, conn, txn, reads_left, writes_left,
                  started](Result<std::string> r) {
                   if (measuring_) ++results_.reads;
                   if (!r.ok() && !r.status().IsNotFound()) {
                     FinishTxn(conn, txn, started, true);
                     return;
                   }
                   NextStatement(conn, txn, reads_left - 1, writes_left,
                                 started);
                 });
    return;
  }
  uint64_t row = PickRow(c);
  std::string value(options_.value_size,
                    static_cast<char>('A' + c->rng.Uniform(26)));
  client_->Put(txn, table_, SyntheticTableLayout::KeyOf(row), value,
               [this, conn, txn, reads_left, writes_left, started](Status s) {
                 if (measuring_) ++results_.writes;
                 if (!s.ok()) {
                   // Deadlock/timeout: the engine already rolled back.
                   if (measuring_) ++results_.errors;
                   --in_flight_;
                   StartTxn(conn);
                   return;
                 }
                 NextStatement(conn, txn, reads_left, writes_left - 1,
                               started);
               });
}

void SysbenchDriver::FinishTxn(int conn, TxnId txn, SimTime started,
                               bool failed) {
  (void)txn;
  if (measuring_) {
    if (failed) {
      ++results_.errors;
    } else {
      ++results_.txns;
      results_.txn_latency_us.Record(loop_->now() - started);
    }
  }
  --in_flight_;
  StartTxn(conn);
}

}  // namespace aurora
