#include "campaign/spec.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace bsp::campaign {

const char* machine_kind_name(MachineKind k) {
  switch (k) {
    case MachineKind::Base: return "base";
    case MachineKind::Simple: return "simple";
    case MachineKind::Sliced: return "sliced";
  }
  return "?";
}

MachineConfig MachinePoint::build() const {
  switch (kind) {
    case MachineKind::Base: return base_machine();
    case MachineKind::Simple: return simple_pipelined_machine(slices);
    case MachineKind::Sliced: return bitsliced_machine(slices, techniques);
  }
  return base_machine();
}

std::string MachinePoint::key() const {
  std::ostringstream os;
  os << machine_kind_name(kind);
  if (kind != MachineKind::Base) os << "-x" << slices;
  if (kind == MachineKind::Sliced) os << "-t0x" << std::hex << techniques;
  return os.str();
}

u64 TaskSpec::functional_warmup() const {
  return warmup - std::min(detailed_warmup, warmup);
}

std::string TaskSpec::id() const {
  std::ostringstream os;
  os << campaign << "/" << workload << "/seed=0x" << std::hex << seed
     << std::dec << "/" << machine.key() << "/n=" << instructions
     << "/w=" << warmup;
  if (const u64 fw = functional_warmup()) os << "/fw=" << fw;
  if (fast_forward != 0) os << "/ff=" << fast_forward;
  if (!cosim.empty()) os << "/cosim=" << cosim;
  return os.str();
}

TaskSpec SweepSpec::task(const std::string& workload, u64 seed,
                         const MachinePoint& machine) const {
  TaskSpec t;
  t.campaign = name;
  t.workload = workload;
  t.seed = seed;
  t.machine = machine;
  t.instructions = instructions;
  t.warmup = warmup;
  t.detailed_warmup = detailed_warmup;
  t.fast_forward = fast_forward;
  t.cosim = cosim;
  return t;
}

std::vector<TaskSpec> SweepSpec::expand() const {
  std::vector<TaskSpec> tasks;
  std::unordered_set<std::string> seen;
  for (const auto& workload : workloads) {
    for (const u64 seed : seeds) {
      for (const auto& machine : machines) {
        TaskSpec t = task(workload, seed, machine);
        if (seen.insert(t.id()).second) tasks.push_back(std::move(t));
      }
    }
  }
  return tasks;
}

}  // namespace bsp::campaign
