// Declarative experiment sweeps (the campaign engine's front half).
//
// A SweepSpec is a parameter grid — machine points x workloads x seeds at a
// fixed instruction budget — that expands into a deterministic,
// duplicate-free task list. Every task carries a stable string id derived
// only from its parameters; the JSONL result store keys resume on these
// ids, so the same spec always re-expands to the same ids across runs and
// processes.
#pragma once

#include <string>
#include <vector>

#include "config/machine_config.hpp"

namespace bsp::campaign {

// How a task's MachineConfig is built from its parameters.
enum class MachineKind {
  Base,    // base_machine(): single-cycle EX, the paper's "best case"
  Simple,  // simple_pipelined_machine(slices): naive EX pipelining
  Sliced,  // bitsliced_machine(slices, techniques)
};

const char* machine_kind_name(MachineKind k);

// One machine column of the sweep grid.
struct MachinePoint {
  std::string label;  // display name for tables, e.g. "x2 +partial tag"
  MachineKind kind = MachineKind::Base;
  unsigned slices = 1;                      // ignored for Base
  TechniqueSet techniques = kNoTechniques;  // Sliced only

  MachineConfig build() const;
  // Canonical id fragment: "base", "simple-x2", "sliced-x2-t0x1f".
  std::string key() const;
};

// One fully specified simulation: the unit the scheduler runs and the
// result store records.
struct TaskSpec {
  std::string campaign;
  std::string workload;
  u64 seed = 0x5eed;
  MachinePoint machine;
  u64 instructions = 200'000;
  u64 warmup = 300'000;
  // How many of the last warm-up commits run through the detailed core;
  // the ones before them are warmed functionally (Simulator::warm). The
  // default keeps every warm-up commit detailed, the reference path.
  u64 detailed_warmup = kAllDetailed;
  // Instructions to fast-forward on the functional emulator before detailed
  // timing starts (the paper skips ~1B per benchmark). 0 = start at reset.
  // Tasks sharing (workload, seed, fast_forward) can reuse one checkpoint.
  u64 fast_forward = 0;
  // Co-simulation cadence ("full", "off", "spot" or "spot:N"; see
  // core/simulator.hpp). "" = the runner's default (full). Co-sim is a pure
  // check, so SimStats do not depend on it — but it is part of the task id
  // when set, since it changes what a run verifies.
  std::string cosim;

  static constexpr u64 kAllDetailed = ~u64{0};

  // Warm-up commits warmed functionally before detailed simulation starts:
  // warmup - min(detailed_warmup, warmup).
  u64 functional_warmup() const;

  // Canonical unique key, e.g.
  // "fig11/li/seed=0x5eed/sliced-x2-t0x1f/n=200000/w=300000/fw=290000"; a
  // nonzero functional_warmup() adds "/fw=F" after the warm-up, a nonzero
  // fast_forward appends "/ff=N" and a non-empty cosim "/cosim=MODE" (zero
  // or unset adds nothing, so pre-existing stores resume unchanged).
  std::string id() const;
};

struct SweepSpec {
  std::string name;
  std::vector<MachinePoint> machines;
  std::vector<std::string> workloads;
  std::vector<u64> seeds = {0x5eedu};
  u64 instructions = 200'000;
  u64 warmup = 300'000;
  u64 detailed_warmup = TaskSpec::kAllDetailed;  // applied to every task
  u64 fast_forward = 0;   // applied to every expanded task
  std::string cosim;      // applied to every expanded task ("" = full)

  // The grid cell (workload, seed, machine) as a task of this sweep.
  TaskSpec task(const std::string& workload, u64 seed,
                const MachinePoint& machine) const;

  // Deterministic expansion: workload-major, then seed, then machine point,
  // in declaration order. Duplicate grid entries (a repeated workload, seed
  // or identical machine point) expand once — the first occurrence wins —
  // so the task list is always duplicate-free.
  std::vector<TaskSpec> expand() const;
};

}  // namespace bsp::campaign
