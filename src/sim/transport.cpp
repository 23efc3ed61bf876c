#include "sim/transport.h"

#include <algorithm>

#include "obs/trace.h"

namespace hetkg::sim {

namespace {

/// SplitMix64 finalizer: the counter-mode hash behind the fault plan.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Distinct salts keep the drop/duplicate/delay decisions of one tick
/// statistically independent.
constexpr uint64_t kDropSalt = 0xD20FULL;
constexpr uint64_t kDuplicateSalt = 0xD0B1ULL;
constexpr uint64_t kDelaySalt = 0xDE1AULL;

}  // namespace

double FaultPlan::HashUnit(uint64_t seed, uint64_t tick, uint64_t salt) {
  const uint64_t h = Mix64(seed ^ Mix64(tick ^ (salt << 32)));
  // 53 mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double FaultPlan::UnitAt(uint64_t tick, uint64_t salt) const {
  return HashUnit(config_.seed, tick, salt);
}

bool FaultPlan::InOutage(uint32_t machine, uint64_t tick) const {
  for (const FaultOutage& o : config_.outages) {
    if (o.machine == machine && tick >= o.start_tick && tick < o.end_tick) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::AttemptLost(uint64_t tick, uint32_t src, uint32_t dst) const {
  if (!config_.enabled) return false;
  if (InOutage(src, tick) || InOutage(dst, tick)) return true;
  return config_.drop_prob > 0.0 && UnitAt(tick, kDropSalt) < config_.drop_prob;
}

bool FaultPlan::Duplicates(uint64_t tick) const {
  if (!config_.enabled || config_.duplicate_prob <= 0.0) return false;
  return UnitAt(tick, kDuplicateSalt) < config_.duplicate_prob;
}

bool FaultPlan::Delays(uint64_t tick) const {
  if (!config_.enabled || config_.delay_prob <= 0.0) return false;
  return UnitAt(tick, kDelaySalt) < config_.delay_prob;
}

Transport::Transport(ClusterSim* cluster, FaultConfig config)
    : cluster_(cluster),
      plan_(config),
      process_schedule_(config.process_faults) {
  std::sort(process_schedule_.begin(), process_schedule_.end(),
            [](const ProcessFault& a, const ProcessFault& b) {
              if (a.tick != b.tick) return a.tick < b.tick;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.machine < b.machine;
            });
}

std::vector<ProcessFault> Transport::TakeDueProcessFaults() {
  std::vector<ProcessFault> due;
  while (process_cursor_ < process_schedule_.size() &&
         process_schedule_[process_cursor_].tick <= tick_) {
    due.push_back(process_schedule_[process_cursor_++]);
  }
  return due;
}

void Transport::SaveState(ByteWriter* w) const {
  w->U64(tick_);
  w->U64(process_cursor_);
  metrics_.SaveState(w);
}

Commit Transport::StageState(ByteReader* r) {
  const uint64_t tick = r->U64();
  const uint64_t cursor = r->U64();
  MetricRegistry metrics;
  if (!r->ok() || cursor > process_schedule_.size() ||
      !metrics.LoadState(r)) {
    return {};
  }
  return [this, tick, cursor, metrics = std::move(metrics)]() mutable {
    tick_ = tick;
    process_cursor_ = static_cast<size_t>(cursor);
    metrics_ = std::move(metrics);
  };
}

bool Transport::FaultsActive() const {
  const FaultConfig& c = plan_.config();
  return c.enabled && (c.drop_prob > 0.0 || c.duplicate_prob > 0.0 ||
                       c.delay_prob > 0.0 || !c.outages.empty());
}

void Transport::ChargeBackoff(uint32_t machine, uint32_t retry_index) {
  cluster_->RecordStall(machine, plan_.config().retry_backoff_seconds *
                                     static_cast<double>(1ULL << retry_index));
  metrics_.Increment(metric::kTransportRetries);
  obs::Tracer::Instant("net.retry", "net", "machine",
                       static_cast<double>(machine), "backoff_index",
                       static_cast<double>(retry_index));
}

Delivery Transport::Send(uint32_t src, uint32_t dst, uint64_t payload_bytes) {
  Delivery d;
  const size_t max_attempts =
      1 + (FaultsActive() ? plan_.config().max_retries : 0);
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      ChargeBackoff(src, static_cast<uint32_t>(attempt - 1));
    }
    ++d.attempts;
    const uint64_t tick = tick_++;
    if (plan_.AttemptLost(tick, src, dst)) {
      // The sender transmitted; the network ate it.
      cluster_->RecordDroppedMessage(src, payload_bytes);
      metrics_.Increment(metric::kTransportDroppedMessages);
      obs::Tracer::Instant("net.drop", "net", "src",
                           static_cast<double>(src), "dst",
                           static_cast<double>(dst));
      continue;
    }
    cluster_->RecordRemoteMessage(src, dst, payload_bytes);
    d.delivered = true;
    if (plan_.Duplicates(tick)) {
      // The duplicate copy occupies the wire a second time.
      cluster_->RecordRemoteMessage(src, dst, payload_bytes);
      d.duplicated = true;
      metrics_.Increment(metric::kTransportDuplicates);
      obs::Tracer::Instant("net.duplicate", "net", "src",
                           static_cast<double>(src), "dst",
                           static_cast<double>(dst));
    }
    if (plan_.Delays(tick)) {
      // A late push stalls the receiver's apply pipeline.
      cluster_->RecordStall(dst, plan_.config().delay_seconds);
      d.delayed = true;
      metrics_.Increment(metric::kTransportDelayed);
      obs::Tracer::Instant("net.delay", "net", "machine",
                           static_cast<double>(dst));
    }
    break;
  }
  if (!d.delivered) {
    metrics_.Increment(metric::kTransportExhaustedRetries);
    obs::Tracer::Instant("net.exhausted_retries", "net", "src",
                         static_cast<double>(src), "dst",
                         static_cast<double>(dst));
  }
  return d;
}

Delivery Transport::Exchange(uint32_t src, uint32_t dst,
                             uint64_t request_bytes,
                             uint64_t response_bytes) {
  Delivery d;
  const size_t max_attempts =
      1 + (FaultsActive() ? plan_.config().max_retries : 0);
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      ChargeBackoff(src, static_cast<uint32_t>(attempt - 1));
    }
    ++d.attempts;
    const uint64_t request_tick = tick_++;
    if (plan_.AttemptLost(request_tick, src, dst)) {
      cluster_->RecordDroppedMessage(src, request_bytes);
      metrics_.Increment(metric::kTransportDroppedMessages);
      obs::Tracer::Instant("net.drop", "net", "src",
                           static_cast<double>(src), "dst",
                           static_cast<double>(dst));
      continue;
    }
    cluster_->RecordRemoteMessage(src, dst, request_bytes);
    const uint64_t response_tick = tick_++;
    if (plan_.AttemptLost(response_tick, dst, src)) {
      // The server served the (idempotent) read but the response died;
      // the whole exchange is retried.
      cluster_->RecordDroppedMessage(dst, response_bytes);
      metrics_.Increment(metric::kTransportDroppedMessages);
      obs::Tracer::Instant("net.drop", "net", "src",
                           static_cast<double>(dst), "dst",
                           static_cast<double>(src));
      continue;
    }
    cluster_->RecordRemoteMessage(dst, src, response_bytes);
    d.delivered = true;
    if (plan_.Duplicates(response_tick)) {
      // A duplicated response crosses the wire again and is discarded
      // by the requester.
      cluster_->RecordRemoteMessage(dst, src, response_bytes);
      d.duplicated = true;
      metrics_.Increment(metric::kTransportDuplicates);
      obs::Tracer::Instant("net.duplicate", "net", "src",
                           static_cast<double>(dst), "dst",
                           static_cast<double>(src));
    }
    if (plan_.Delays(response_tick)) {
      // The requester blocks on the pull, so the lateness is its stall.
      cluster_->RecordStall(src, plan_.config().delay_seconds);
      d.delayed = true;
      metrics_.Increment(metric::kTransportDelayed);
      obs::Tracer::Instant("net.delay", "net", "machine",
                           static_cast<double>(src));
    }
    break;
  }
  if (!d.delivered) {
    metrics_.Increment(metric::kTransportExhaustedRetries);
    obs::Tracer::Instant("net.exhausted_retries", "net", "src",
                         static_cast<double>(src), "dst",
                         static_cast<double>(dst));
  }
  return d;
}

}  // namespace hetkg::sim
