#include "sim/cluster.h"

#include <algorithm>
#include <cassert>

namespace hetkg::sim {

ClusterSim::ClusterSim(size_t num_machines, NetworkConfig net,
                       ComputeConfig compute)
    : net_(net), compute_(compute), per_machine_(num_machines) {
  assert(num_machines >= 1);
}

void ClusterSim::RecordRemoteMessage(uint32_t src, uint32_t dst,
                                     uint64_t payload_bytes) {
  assert(src < per_machine_.size() && dst < per_machine_.size());
  assert(src != dst && "same-machine traffic must use RecordLocalCopy");
  const uint64_t wire = payload_bytes + net_.header_bytes;
  per_machine_[src].bytes_out += wire;
  per_machine_[dst].bytes_in += wire;
  ++per_machine_[src].messages_initiated;
}

void ClusterSim::RecordDroppedMessage(uint32_t src, uint64_t payload_bytes) {
  assert(src < per_machine_.size());
  per_machine_[src].bytes_out += payload_bytes + net_.header_bytes;
  ++per_machine_[src].messages_initiated;
}

void ClusterSim::RecordStall(uint32_t machine, double seconds) {
  assert(machine < per_machine_.size());
  assert(seconds >= 0.0);
  per_machine_[machine].stall_seconds += seconds;
}

void ClusterSim::RecordExternalIn(uint32_t machine, uint64_t payload_bytes) {
  assert(machine < per_machine_.size());
  per_machine_[machine].bytes_in += payload_bytes + net_.header_bytes;
  ++per_machine_[machine].messages_initiated;
}

void ClusterSim::RecordExternalOut(uint32_t machine, uint64_t payload_bytes) {
  assert(machine < per_machine_.size());
  per_machine_[machine].bytes_out += payload_bytes + net_.header_bytes;
  ++per_machine_[machine].messages_initiated;
}

void ClusterSim::RecordLocalCopy(uint32_t machine, uint64_t bytes) {
  assert(machine < per_machine_.size());
  per_machine_[machine].local_bytes += bytes;
}

void ClusterSim::RecordCompute(uint32_t machine, uint64_t flops) {
  assert(machine < per_machine_.size());
  per_machine_[machine].flops += flops;
}

TimeBreakdown ClusterSim::MachineTime(uint32_t machine) const {
  assert(machine < per_machine_.size());
  const MachineCounters& c = per_machine_[machine];
  TimeBreakdown t;
  t.comm_seconds =
      static_cast<double>(c.bytes_out + c.bytes_in) /
          net_.bandwidth_bytes_per_sec +
      static_cast<double>(c.messages_initiated) * net_.latency_seconds +
      c.stall_seconds;
  t.compute_seconds =
      c.slowdown *
      (static_cast<double>(c.flops) / compute_.flops_per_second +
       static_cast<double>(c.local_bytes) /
           net_.memory_bandwidth_bytes_per_sec);
  return t;
}

TimeBreakdown ClusterSim::CriticalPath() const {
  TimeBreakdown worst;
  double worst_total = -1.0;
  for (uint32_t m = 0; m < per_machine_.size(); ++m) {
    const TimeBreakdown t = MachineTime(m);
    if (t.total_seconds() > worst_total) {
      worst_total = t.total_seconds();
      worst = t;
    }
  }
  return worst;
}

TimeBreakdown ClusterSim::OverlappedCriticalPath(size_t staleness) const {
  TimeBreakdown worst;
  double worst_total = -1.0;
  const double depth = static_cast<double>(staleness) + 1.0;
  for (uint32_t m = 0; m < per_machine_.size(); ++m) {
    TimeBreakdown t = MachineTime(m);
    const double hidden =
        std::min(t.compute_seconds, t.comm_seconds) * (1.0 - 1.0 / depth);
    t.overlap_seconds = hidden;
    if (t.total_seconds() > worst_total) {
      worst_total = t.total_seconds();
      worst = t;
    }
  }
  return worst;
}

uint64_t ClusterSim::TotalRemoteBytes() const {
  uint64_t total = 0;
  for (const auto& c : per_machine_) {
    total += c.bytes_out;
  }
  return total;
}

uint64_t ClusterSim::TotalRemoteMessages() const {
  uint64_t total = 0;
  for (const auto& c : per_machine_) {
    total += c.messages_initiated;
  }
  return total;
}

uint64_t ClusterSim::TotalFlops() const {
  uint64_t total = 0;
  for (const auto& c : per_machine_) {
    total += c.flops;
  }
  return total;
}

void ClusterSim::Reset() {
  for (auto& c : per_machine_) {
    const double slowdown = c.slowdown;
    c = MachineCounters{};
    c.slowdown = slowdown;
  }
}

void ClusterSim::SetMachineSlowdown(uint32_t machine, double factor) {
  assert(machine < per_machine_.size());
  assert(factor > 0.0);
  per_machine_[machine].slowdown = factor;
}

void ClusterSim::SaveState(ByteWriter* w) const {
  w->U64(per_machine_.size());
  for (const MachineCounters& c : per_machine_) {
    w->U64(c.bytes_out);
    w->U64(c.bytes_in);
    w->U64(c.messages_initiated);
    w->U64(c.local_bytes);
    w->U64(c.flops);
    w->F64(c.stall_seconds);
    w->F64(c.slowdown);
  }
}

Commit ClusterSim::StageState(ByteReader* r) {
  if (r->U64() != per_machine_.size()) return {};
  std::vector<MachineCounters> machines(per_machine_.size());
  for (MachineCounters& c : machines) {
    c.bytes_out = r->U64();
    c.bytes_in = r->U64();
    c.messages_initiated = r->U64();
    c.local_bytes = r->U64();
    c.flops = r->U64();
    c.stall_seconds = r->F64();
    c.slowdown = r->F64();
  }
  if (!r->ok()) return {};
  return [this, machines = std::move(machines)]() mutable {
    per_machine_ = std::move(machines);
  };
}

}  // namespace hetkg::sim
