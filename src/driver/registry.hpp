// Named machine-configuration and workload tables — the single source of
// truth the experiment specs reference.
//
// Both tables are constant: the three Table 1 machines and the twelve
// workloads (six NAS-signature kernels, six irregular kernels), in paper
// order.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/machine.hpp"
#include "workloads/nas.hpp"

namespace hm::driver {

bool has_machine(std::string_view name);
bool has_workload(std::string_view name);

/// Construct by name; throws std::out_of_range for unknown names.
MachineConfig make_machine(std::string_view name);
Workload make_workload(std::string_view name, WorkloadScale scale);

/// Names in table order (paper order).
std::vector<std::string> machine_names();
std::vector<std::string> workload_names();

/// Registry name of a built-in MachineKind ("hybrid_coherent", ...).
const char* machine_name(MachineKind kind);

}  // namespace hm::driver
