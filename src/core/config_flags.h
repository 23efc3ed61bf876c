#ifndef HETKG_CORE_CONFIG_FLAGS_H_
#define HETKG_CORE_CONFIG_FLAGS_H_

#include <string>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "core/trainer.h"
#include "sim/transport.h"

namespace hetkg::core {

/// The command-line surface of TrainerConfig (DESIGN.md §5), shared by
/// the launcher (example_hetkg_train) and every table/figure bench:
/// registers one flag per config knob — training, cache and sync,
/// faults, recovery, observability, tiered storage; the list and its
/// help texts live in config_flags.cpp. Every default is printed from
/// `defaults`, so each binary keeps one source for its defaults. Flags
/// that are not config fields (dataset, system, model, epochs,
/// evaluation, runtime and proc options) stay with the binary that
/// reads them.
void DefineTrainerFlags(FlagParser* flags, const TrainerConfig& defaults);

/// Maps the flags DefineTrainerFlags registered onto a TrainerConfig;
/// fields without a flag keep TrainerConfig{}'s values. An unknown
/// --storage or --cold_dtype and a malformed process-fault schedule are
/// InvalidArgument naming the flag. Whether the features the flags pick
/// work together is ValidateConfig's call (core/trainer.h).
Result<TrainerConfig> TrainerConfigFromFlags(const FlagParser& flags);

/// Parses one "machine:tick[,machine:tick...]" process-fault schedule
/// (--fault_worker_crash / --fault_ps_restart; the launcher reuses it
/// for the --proc_kill / --proc_stop iteration schedules). Malformed
/// items, ids that do not fit a uint32, and ticks that overflow uint64
/// (ERANGE) are InvalidArgument — never silently clamped or wrapped, so
/// a typo'd crash scenario never degrades into a fault-free run. The
/// empty string is the empty schedule.
Result<std::vector<sim::ProcessFault>> ParseProcessFaultSpec(
    const std::string& spec, sim::ProcessFaultKind kind);

}  // namespace hetkg::core

#endif  // HETKG_CORE_CONFIG_FLAGS_H_
