#ifndef HETKG_SIM_CLUSTER_H_
#define HETKG_SIM_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace hetkg::sim {

/// Network cost model of the paper's testbed: machines joined by a
/// 1 Gbps Ethernet, where moving B payload bytes in one message costs
///   latency + (B + header) / bandwidth
/// at both the sender's and receiver's NIC. Local (same-machine,
/// shared-memory) transfers cost only memory bandwidth.
struct NetworkConfig {
  double bandwidth_bytes_per_sec = 125.0e6;  // 1 Gbps.
  /// Effective per-message cost. Raw LAN RTT is ~100us, but the PS
  /// stack pipelines requests, so the marginal cost per batched message
  /// is far below a full RTT.
  double latency_seconds = 20e-6;
  uint64_t header_bytes = 64;                // Framing per message.
  /// Effective throughput of the localPull/localPush shared-memory path.
  /// This is NOT raw memcpy speed: DGL-KE's local KVStore path still
  /// serializes ids, slices rows, and crosses the Python/C boundary, so
  /// its effective rate is framework-bound. 300 MB/s keeps the paper's
  /// two anchors consistent: ~70% network share at 4 machines (Table I)
  /// and positive multi-worker speedup over one worker (Fig. 6).
  double memory_bandwidth_bytes_per_sec = 3.0e8;
};

/// Compute cost model: each machine contributes `flops_per_second` of
/// effective throughput. The default is calibrated, not peak hardware:
/// real DGL-KE runs Python/DGL with sampling and memcpy overheads, and
/// the paper's Table I reports ~70% of end-to-end time in network on a
/// 4-machine 1 Gbps cluster. 1.5 GFLOPS effective reproduces that
/// compute:communication balance on the scaled workloads.
struct ComputeConfig {
  double flops_per_second = 1.5e9;
};

/// Seconds of computation and communication attributed to one machine
/// (or aggregated over the cluster's critical path).
///
/// `overlap_seconds` is nonzero only for the async pipeline engine
/// (DESIGN.md §12): the seconds during which the machine's compute and
/// communication proceeded concurrently, which the elapsed-time total
/// therefore does not pay twice. Serial engines leave it at 0, so
/// total = compute + comm exactly as before.
struct TimeBreakdown {
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  double overlap_seconds = 0.0;
  double total_seconds() const {
    return compute_seconds + comm_seconds - overlap_seconds;
  }
};

/// Deterministic accounting of a simulated cluster.
///
/// Every embedding transfer in the PS/cache layers reports here; the
/// epoch time reported by the benches is the *critical path* — the
/// slowest machine's compute + communication — matching how an
/// asynchronous cluster's epoch time is bounded. All arithmetic is a
/// pure function of the recorded byte/flop counts, so results are
/// bit-reproducible.
class ClusterSim {
 public:
  ClusterSim(size_t num_machines, NetworkConfig net = {},
             ComputeConfig compute = {});

  size_t num_machines() const { return per_machine_.size(); }
  const NetworkConfig& network_config() const { return net_; }
  const ComputeConfig& compute_config() const { return compute_; }

  /// One message from `src` to `dst` carrying `payload_bytes`. The
  /// bytes (plus header) occupy both NICs; the latency is charged to
  /// the initiator. src == dst is invalid — use RecordLocalCopy.
  void RecordRemoteMessage(uint32_t src, uint32_t dst, uint64_t payload_bytes);

  /// One message that left `src`'s NIC but was lost in the network
  /// (fault injection): the sender pays wire bytes and latency, the
  /// receiver sees nothing.
  void RecordDroppedMessage(uint32_t src, uint64_t payload_bytes);

  /// `seconds` of time `machine` spent waiting on the network without
  /// moving bytes (retry backoff, delayed deliveries). Counted as
  /// communication time.
  void RecordStall(uint32_t machine, double seconds);

  /// Shared-memory transfer on `machine` (localPull/localPush).
  void RecordLocalCopy(uint32_t machine, uint64_t bytes);

  /// Transfer between `machine` and an external shared filesystem (the
  /// PBG partition-swap path): charges the machine's NIC in the given
  /// direction plus one message.
  void RecordExternalIn(uint32_t machine, uint64_t payload_bytes);
  void RecordExternalOut(uint32_t machine, uint64_t payload_bytes);

  /// `flops` floating-point work on `machine`.
  void RecordCompute(uint32_t machine, uint64_t flops);

  /// Modeled times for one machine.
  TimeBreakdown MachineTime(uint32_t machine) const;

  /// Critical-path epoch time: max over machines of compute + comm.
  TimeBreakdown CriticalPath() const;

  /// Critical path when each machine's compute and communication
  /// overlap under a pipeline with run-ahead bound `staleness` (the
  /// async engine, DESIGN.md §12). With N in-flight iterations the
  /// shorter of the two phases hides behind the longer for N out of
  /// every N+1 iterations, so per machine
  ///   total = max(compute, comm) + min(compute, comm) / (N + 1)
  /// — N = 0 degenerates to the serial sum, N -> inf to perfect
  /// overlap. Pure arithmetic over the same counters as CriticalPath,
  /// so it is just as bit-reproducible.
  TimeBreakdown OverlappedCriticalPath(size_t staleness) const;

  /// Cluster-wide totals, for traffic reporting.
  uint64_t TotalRemoteBytes() const;
  uint64_t TotalRemoteMessages() const;
  uint64_t TotalFlops() const;

  /// Clears the counters (between epochs or measurement windows).
  /// Slowdown factors persist across Reset().
  void Reset();

  /// Failure-injection knob: multiplies `machine`'s compute time by
  /// `factor` (>= 1.0 slows it down — a straggler; < 1.0 models a
  /// faster node). Communication is unaffected.
  void SetMachineSlowdown(uint32_t machine, double factor);

  /// Serializes every machine's counters — including stall time and
  /// slowdown factors — for the HETKGCK2 snapshots. A mid-epoch resume
  /// needs the partially accumulated clocks so the epoch's critical
  /// path comes out bit-identical to an uninterrupted run.
  void SaveState(ByteWriter* w) const;
  Commit StageState(ByteReader* r);

 private:
  struct MachineCounters {
    uint64_t bytes_out = 0;
    uint64_t bytes_in = 0;
    uint64_t messages_initiated = 0;
    uint64_t local_bytes = 0;
    uint64_t flops = 0;
    double stall_seconds = 0.0;
    double slowdown = 1.0;
  };

  NetworkConfig net_;
  ComputeConfig compute_;
  std::vector<MachineCounters> per_machine_;
};

}  // namespace hetkg::sim

#endif  // HETKG_SIM_CLUSTER_H_
