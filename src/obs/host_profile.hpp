// Host-phase profiling: where does the simulator's *host* time go?
//
// `SimStats::host_seconds` says how long the cycle loop (plus any
// functional warming before it) ran; this breaks the loop's wall-clock down
// by scheduler phase so a BENCH_simcore.json regression can be attributed
// ("commit/co-sim got slower") instead of merely observed. Opt-in (`Simulator::enable_host_profile()`): the
// per-phase `steady_clock` reads cost real nanoseconds per simulated
// cycle, so the default run keeps the loop clean and `enabled` false.
//
// Phase buckets mirror the cycle loop's stage order. Two sub-phases are
// *nested inside* their parent and must not be double-counted when
// summing: `cosim` time is part of `commit`, and `replay` (the relaxation
// pass reverting illegal selects) is part of `memory`. total() therefore
// sums the six top-level phases only.
#pragma once

#include "util/bitops.hpp"

namespace bsp::obs {

struct HostProfile {
  bool enabled = false;

  // Top-level phases, in pipeline-stage order (seconds of host time).
  double commit = 0;    // retire + architectural checks (includes cosim)
  double resolve = 0;   // branch resolution + recovery
  double select = 0;    // wakeup/select + slice-op execute
  double memory = 0;    // LSQ disambiguation + cache access/verify
                        // (includes replay)
  double dispatch = 0;  // RUU/LSQ insert + rename + oracle step
  double fetch = 0;     // front-end fetch/predict

  // Nested sub-phases (already counted in their parent above).
  double cosim = 0;     // co-simulation commit check   (subset of commit)
  double replay = 0;    // selective-replay relaxation  (subset of memory)

  // Pre-loop phase: functional fast-forward to the task's start checkpoint
  // (campaign tasks with fast_forward > 0; 0 on a checkpoint-cache hit).
  // Happens before the cycle loop, so it is outside total() — total()
  // remains "seconds inside the instrumented loop".
  double ffwd = 0;

  // Simulated cycles the instrumented loop executed (idle skips count as
  // one loop iteration, not their skipped length) — denominator for
  // ns-per-loop-cycle reporting.
  u64 loop_cycles = 0;

  double total() const {
    return commit + resolve + select + memory + dispatch + fetch;
  }

  // Accumulates another run's profile (phase sums; enabled if either side
  // was). Host time is additive across runs whether they executed serially
  // or in parallel — the sum is total CPU time spent, not wall clock.
  void merge(const HostProfile& other) {
    enabled = enabled || other.enabled;
    commit += other.commit;
    resolve += other.resolve;
    select += other.select;
    memory += other.memory;
    dispatch += other.dispatch;
    fetch += other.fetch;
    cosim += other.cosim;
    replay += other.replay;
    ffwd += other.ffwd;
    loop_cycles += other.loop_cycles;
  }
};

}  // namespace bsp::obs
