#ifndef HETKG_SIM_TRANSPORT_H_
#define HETKG_SIM_TRANSPORT_H_

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "sim/cluster.h"

namespace hetkg::sim {

/// One scheduled unavailability window of a machine, expressed on the
/// transport's logical clock (one tick per wire attempt). Every message
/// attempt whose source or destination is `machine` while
/// start_tick <= tick < end_tick is lost.
struct FaultOutage {
  uint32_t machine = 0;
  uint64_t start_tick = 0;
  uint64_t end_tick = 0;
};

/// Which process a scheduled process-level fault takes down.
enum class ProcessFaultKind : uint32_t {
  /// A worker process dies, losing all volatile worker state (cache,
  /// batch queue, pending write-back gradients, staleness clocks). The
  /// engine recovers it from the latest checkpoint (replaying the
  /// iterations since, idempotently) or restarts it from scratch.
  kWorkerCrash = 0,
  /// The PS shard hosted on a machine restarts, losing its in-memory
  /// rows and optimizer accumulators. The server restores them from the
  /// latest checkpoint or re-initializes from the seed.
  kPsShardRestart = 1,
};

/// One scheduled process-level failure, on the same logical clock as
/// the outage windows: the event becomes due once the transport clock
/// reaches `tick`, and engines consume due events at iteration
/// boundaries (scheduling thread only). Like every fault decision, the
/// schedule is data, so a crash scenario replays bit-identically.
struct ProcessFault {
  ProcessFaultKind kind = ProcessFaultKind::kWorkerCrash;
  uint32_t machine = 0;
  uint64_t tick = 0;
};

/// Knobs of the deterministic fault model. With `enabled == false`
/// (the default) the transport is a transparent pass-through whose
/// accounting is bit-identical to calling ClusterSim directly, and no
/// fault metrics are ever touched.
struct FaultConfig {
  bool enabled = false;
  /// Seed of the fault plan. Two transports with the same seed and the
  /// same message sequence make identical decisions.
  uint64_t seed = 42;
  /// Probability one wire attempt is lost in the network (the sender
  /// still pays NIC bytes; the receiver sees nothing).
  double drop_prob = 0.0;
  /// Probability a delivered message arrives twice (both copies cross
  /// the wire; receivers must deduplicate).
  double duplicate_prob = 0.0;
  /// Probability a delivered message is late by `delay_seconds`.
  double delay_prob = 0.0;
  /// Modeled extra latency of one delayed delivery.
  double delay_seconds = 500e-6;
  /// Retransmissions attempted after the first try before the sender
  /// gives up and takes the degradation path.
  size_t max_retries = 3;
  /// Backoff before the first retransmission; doubles on every further
  /// retry (exponential backoff). Charged to the waiting machine.
  double retry_backoff_seconds = 200e-6;
  /// Scheduled per-machine outage windows.
  std::vector<FaultOutage> outages;
  /// Scheduled process-level failures (worker crash / PS shard
  /// restart). Unlike the message faults above, these fire regardless
  /// of `enabled`: the schedule is explicit, not probabilistic.
  std::vector<ProcessFault> process_faults;
};

/// Pure-function-of-seed fault decider: every decision is a hash of
/// (seed, tick, decision kind), so a plan is replayed bit-identically by
/// any transport fed the same message sequence, independent of thread
/// count or wall-clock time.
class FaultPlan {
 public:
  explicit FaultPlan(const FaultConfig& config) : config_(config) {}

  /// True when the wire attempt at `tick` between `src` and `dst` is
  /// lost (random drop or either endpoint inside an outage window).
  bool AttemptLost(uint64_t tick, uint32_t src, uint32_t dst) const;

  /// True when the delivery decided at `tick` arrives twice.
  bool Duplicates(uint64_t tick) const;

  /// True when the delivery decided at `tick` is late.
  bool Delays(uint64_t tick) const;

  /// True when `machine` is inside a scheduled outage at `tick`.
  bool InOutage(uint32_t machine, uint64_t tick) const;

  const FaultConfig& config() const { return config_; }

  /// The plan's counter-mode hash as a pure function: a deterministic
  /// uniform double in [0, 1) for (seed, tick, salt). Exposed so other
  /// fault deciders — notably the real-transport FaultChannel
  /// (src/net/fault_channel.h) — share the exact PR-2 semantics
  /// instead of reinventing a hash.
  static double HashUnit(uint64_t seed, uint64_t tick, uint64_t salt);

 private:
  /// Deterministic uniform double in [0, 1) for (tick, salt).
  double UnitAt(uint64_t tick, uint64_t salt) const;

  FaultConfig config_;
};

/// Outcome of one logical message (or request/response exchange).
struct Delivery {
  bool delivered = false;   // At least one copy reached the receiver.
  bool duplicated = false;  // A second copy also arrived.
  bool delayed = false;     // The delivery was late by delay_seconds.
  uint32_t attempts = 0;    // Wire attempts, including the first try.
};

/// Per-message delivery layer between the workers and the parameter
/// server. Wraps the ClusterSim cost model: every wire attempt —
/// including retransmissions, duplicates, and drops — is charged to the
/// NICs it actually occupies, retry backoff and delivery delay are
/// charged as stall time, and fault events are mirrored into a
/// MetricRegistry. Single-threaded by design, like all simulation
/// accounting: engines call it only from the scheduling thread.
///
/// Under the process runtime (DESIGN.md §13, src/net/) this object
/// lives in the coordinator process only: worker processes route their
/// PS traffic there as RPCs, and the coordinator applies them in the
/// workers' program order — so the fault plan, the accounting, and the
/// serialized clocks stay bit-identical to the in-process run even
/// though the bytes really crossed a process boundary.
class Transport {
 public:
  /// `cluster` must outlive the transport.
  explicit Transport(ClusterSim* cluster, FaultConfig config = {});

  /// One-way logical message (a gradient push): retries dropped
  /// attempts with exponential backoff until delivered or
  /// `max_retries` retransmissions are exhausted.
  Delivery Send(uint32_t src, uint32_t dst, uint64_t payload_bytes);

  /// Request/response exchange (a pull): the request carries
  /// `request_bytes` src -> dst, the response `response_bytes`
  /// dst -> src. Losing either leg loses the exchange; a retry repeats
  /// both legs. Faults (duplicate/delay) are decided on the response
  /// leg — a duplicated response is ignored by the requester, so
  /// exchanges are naturally idempotent.
  Delivery Exchange(uint32_t src, uint32_t dst, uint64_t request_bytes,
                    uint64_t response_bytes);

  /// Logical clock: wire attempts made so far. Outage windows and
  /// process-fault schedules are expressed on this clock.
  uint64_t clock() const { return tick_; }

  /// Consumes and returns the scheduled process-level faults whose tick
  /// the clock has reached, in schedule order (tick, kind, machine).
  /// Engines poll this at iteration boundaries on the scheduling
  /// thread; each event is delivered exactly once.
  std::vector<ProcessFault> TakeDueProcessFaults();

  /// True while unconsumed process faults remain scheduled.
  bool HasPendingProcessFaults() const {
    return process_cursor_ < process_schedule_.size();
  }

  /// True when the next unconsumed process fault is already due at the
  /// current clock — i.e. TakeDueProcessFaults() would return events.
  /// The async pipeline's push stage polls this to stop feeding new
  /// iterations, without tripping on faults scheduled far in the future.
  bool HasDueProcessFaults() const {
    return process_cursor_ < process_schedule_.size() &&
           process_schedule_[process_cursor_].tick <= tick_;
  }

  const FaultConfig& config() const { return plan_.config(); }
  ClusterSim* cluster() { return cluster_; }

  /// Fault counters (transport.* names); empty while no fault fires.
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }

  /// Serializes the transport's mutable state — the logical clock, the
  /// process-fault delivery cursor, and the fault counters — for the
  /// HETKGCK2 snapshots. The plan itself is config and is rebuilt.
  void SaveState(ByteWriter* w) const;
  Commit StageState(ByteReader* r);

 private:
  /// True when the fault machinery can fire at all.
  bool FaultsActive() const;

  /// Charges the exponential backoff preceding retry `retry_index`
  /// (0-based) to `machine`.
  void ChargeBackoff(uint32_t machine, uint32_t retry_index);

  ClusterSim* cluster_;  // Not owned.
  FaultPlan plan_;
  MetricRegistry metrics_;
  uint64_t tick_ = 0;
  /// config().process_faults in deterministic delivery order, plus the
  /// index of the first not-yet-delivered event.
  std::vector<ProcessFault> process_schedule_;
  size_t process_cursor_ = 0;
};

}  // namespace hetkg::sim

#endif  // HETKG_SIM_TRANSPORT_H_
