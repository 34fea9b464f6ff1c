// Functional warming (Simulator::warm) against detailed warm-up, and the
// replay-fixpoint liveness regression the warmed paper campaigns rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "asm/assembler.hpp"
#include "core/simulator.hpp"
#include "stats/stats.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

double rel_diff(double a, double b) { return std::fabs(a - b) / b; }

// The accuracy claim behind the paper campaigns' 10k detailed tail: warming
// all but the last D warm-up commits functionally measures the same IPC as
// simulating every warm-up commit in detail, on the x2/x4 full stacks.
TEST(FunctionalWarmup, MatchesDetailedWarmupIpc) {
  constexpr u64 kWarmup = 100'000, kDetailed = 10'000, kMeasured = 20'000;
  for (const char* name : {"li", "mcf", "gcc"}) {
    const Workload w = build_workload(name);
    for (const unsigned slices : {2u, 4u}) {
      const MachineConfig cfg = bitsliced_machine(slices, kAllTechniques);
      const SimResult ref = simulate(cfg, w.program, kMeasured, kWarmup);
      Simulator sim(cfg, w.program);
      sim.warm(kWarmup - kDetailed);
      const SimResult fw = sim.run(kMeasured, kDetailed);
      ASSERT_TRUE(ref.ok()) << ref.error;
      ASSERT_TRUE(fw.ok()) << fw.error;
      EXPECT_EQ(fw.stats.committed, ref.stats.committed);
      EXPECT_LT(rel_diff(fw.stats.ipc(), ref.stats.ipc()), 0.005)
          << name << " x" << slices << ": warmed " << fw.stats.ipc()
          << " vs detailed " << ref.stats.ipc();
    }
  }
}

// Cold caches and predictors bias IPC low; warming is what removes it. The
// detailed tail alone (no functional warming) must sit measurably further
// from the reference than the warmed run, or the test above proves nothing.
TEST(FunctionalWarmup, WarmingIsWhatClosesTheColdStartGap) {
  constexpr u64 kWarmup = 60'000, kDetailed = 5'000, kMeasured = 20'000;
  const Workload w = build_workload("mcf");
  const MachineConfig cfg = bitsliced_machine(2, kAllTechniques);
  const SimResult ref = simulate(cfg, w.program, kMeasured, kWarmup);
  const SimResult cold = simulate(cfg, w.program, kMeasured, kDetailed);
  Simulator sim(cfg, w.program);
  sim.warm(kWarmup - kDetailed);
  const SimResult fw = sim.run(kMeasured, kDetailed);
  ASSERT_TRUE(ref.ok() && cold.ok() && fw.ok());
  EXPECT_GT(rel_diff(cold.stats.ipc(), ref.stats.ipc()), 0.02);
  EXPECT_LT(rel_diff(fw.stats.ipc(), ref.stats.ipc()),
            rel_diff(cold.stats.ipc(), ref.stats.ipc()));
}

// Co-simulation stays a pure check across warming: the checker is brought
// level during warm(), so every mode yields the same SimStats and no
// divergence.
TEST(FunctionalWarmup, EveryCosimModeGivesTheSameStats) {
  const Workload w = build_workload("gzip");
  const MachineConfig cfg = bitsliced_machine(4, kAllTechniques);
  std::vector<SimStats> out;
  for (const char* mode : {"full", "spot:16", "off"}) {
    SimOptions so;
    ASSERT_TRUE(parse_cosim(mode, &so));
    Simulator sim(cfg, w.program);
    sim.set_options(so);
    sim.warm(30'000);
    const SimResult r = sim.run(5'000, 1'000);
    ASSERT_TRUE(r.ok()) << mode << ": " << r.error;
    out.push_back(r.stats);
  }
  for (const SimStats& s : out) {
    EXPECT_EQ(s.cycles, out[0].cycles);
    EXPECT_EQ(s.committed, out[0].committed);
    EXPECT_EQ(s.dispatched, out[0].dispatched);
    EXPECT_EQ(s.branch_mispredicts, out[0].branch_mispredicts);
  }
}

// A program that exits while warming is reported as exited, with nothing
// measured and no error.
TEST(FunctionalWarmup, ExitDuringWarmupEndsTheRunCleanly) {
  const AsmResult a = assemble(R"(
.text
main:
  li $t0, 10
loop:
  addiu $t0, $t0, -1
  bgtz $t0, loop
  li $v0, 10
  li $a0, 7
  syscall
)");
  ASSERT_TRUE(a.ok()) << a.error_text();
  Simulator sim(base_machine(), a.program);
  sim.warm(1'000);
  const SimResult r = sim.run(1'000);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_code, 7);
  EXPECT_EQ(r.stats.committed, 0u);
}

// host_seconds covers the whole simulation a task paid for, functional
// warming included: with a long warm() and a short run(), the reported
// host time must hold at least half the externally timed warm().
TEST(FunctionalWarmup, HostSecondsCountsWarmingTime) {
  const Workload w = build_workload("gzip");
  Simulator sim(base_machine(), w.program);
  const WallTimer timer;
  sim.warm(200'000);
  const double warm_sec = timer.seconds();
  const SimResult r = sim.run(1'000);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GE(r.stats.host_seconds, 0.5 * warm_sec)
      << "warm() took " << warm_sec << " s";
}

// Replay-fixpoint liveness. Recovery restores displaced rename mappings,
// which may name a producer that has since committed. An instruction that
// dispatched into that producer's recycled RUU slot and read the register
// used to register itself on its own consumer list; a store there relays
// to its consumers on every relaxation pass, so run_relax() spun forever
// at one cycle. This gcc program on the x4 machine with partial bypassing,
// early disambiguation and partial tags (0x19) reached that state after
// ~393k commits from reset.
TEST(ReplayLiveness, StaleRenameReferenceDoesNotWedgeTheFixpoint) {
  WorkloadParams params;
  params.seed = 2;
  const Workload w = build_workload("gcc", params);
  const MachineConfig cfg = bitsliced_machine(4, 0x19);
  SimOptions so;
  so.cosim = CosimMode::kOff;  // the defect is in timing, not in values
  Simulator sim(cfg, w.program);
  sim.set_options(so);
  const SimResult r = sim.run(400'000);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.stats.committed, 400'000u);
}

}  // namespace
}  // namespace bsp
