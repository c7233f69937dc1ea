#include "driver/registry.hpp"

#include <stdexcept>
#include <utility>

#include "workloads/irregular.hpp"

namespace hm::driver {

namespace {

template <typename Factory>
using Table = std::vector<std::pair<std::string_view, Factory>>;

using MachineFactory = MachineConfig (*)();
using WorkloadFactory = Workload (*)(WorkloadScale);

const Table<MachineFactory>& machines() {
  static const Table<MachineFactory> table = {
      {"hybrid_coherent", &MachineConfig::hybrid_coherent},
      {"hybrid_oracle", &MachineConfig::hybrid_oracle},
      {"cache_based", &MachineConfig::cache_based},
  };
  return table;
}

const Table<WorkloadFactory>& workloads() {
  static const Table<WorkloadFactory> table = {
      {"CG", &make_cg},
      {"EP", &make_ep},
      {"FT", &make_ft},
      {"IS", &make_is},
      {"MG", &make_mg},
      {"SP", &make_sp},
      // The irregular suite (workloads/irregular.hpp) at its default
      // parameters.
      {"SPMV", [](WorkloadScale s) { return make_spmv(s); }},
      {"STENCIL", [](WorkloadScale s) { return make_stencil(s); }},
      {"PCHASE", [](WorkloadScale s) { return make_pchase(s); }},
      {"HIST", [](WorkloadScale s) { return make_hist(s); }},
      {"TRIAD", [](WorkloadScale s) { return make_triad(s); }},
      {"RADIX", [](WorkloadScale s) { return make_radix(s); }},
  };
  return table;
}

template <typename Factory>
const Factory* find(const Table<Factory>& table, std::string_view name) {
  for (const auto& [n, make] : table)
    if (n == name) return &make;
  return nullptr;
}

template <typename Factory>
const Factory& get(const Table<Factory>& table, std::string_view name, const char* what) {
  if (const Factory* make = find(table, name)) return *make;
  throw std::out_of_range(std::string("unknown ") + what + ": " + std::string(name));
}

template <typename Factory>
std::vector<std::string> names(const Table<Factory>& table) {
  std::vector<std::string> out;
  out.reserve(table.size());
  for (const auto& e : table) out.emplace_back(e.first);
  return out;
}

}  // namespace

bool has_machine(std::string_view name) { return find(machines(), name) != nullptr; }
bool has_workload(std::string_view name) { return find(workloads(), name) != nullptr; }

MachineConfig make_machine(std::string_view name) {
  return get(machines(), name, "machine")();
}

Workload make_workload(std::string_view name, WorkloadScale scale) {
  return get(workloads(), name, "workload")(scale);
}

std::vector<std::string> machine_names() { return names(machines()); }
std::vector<std::string> workload_names() { return names(workloads()); }

const char* machine_name(MachineKind kind) {
  switch (kind) {
    case MachineKind::HybridCoherent: return "hybrid_coherent";
    case MachineKind::HybridOracle: return "hybrid_oracle";
    case MachineKind::CacheBased: return "cache_based";
  }
  return "?";
}

}  // namespace hm::driver
