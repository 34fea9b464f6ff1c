// Directed timing-core scenarios: each test constructs a small program that
// isolates one mechanism (forwarding, recovery, replay, structural stalls,
// call/return prediction) and checks both its architectural outcome and the
// mechanism-level counters.
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "core/simulator.hpp"

namespace bsp {
namespace {

Program compile(const std::string& src) {
  AsmResult r = assemble(src);
  EXPECT_TRUE(r.ok()) << r.error_text();
  return r.program;
}

SimResult run(const MachineConfig& cfg, const std::string& src,
              u64 commits = 1u << 20) {
  const SimResult r = simulate(cfg, compile(src), commits);
  EXPECT_TRUE(r.ok()) << r.error;
  return r;
}

const char* kExit = "  li $v0, 10\n  li $a0, 0\n  syscall\n";

// Store-to-load forwarding: a load that reads a just-written location must
// forward in-queue (counted) and still commit the right value (co-sim).
TEST(CoreDirected, StoreLoadForwarding) {
  const std::string src = std::string(R"(
.text
main:
  li $t0, 2000
  li $t3, 0x1234
loop:
  sw $t3, 16($gp)
  lw $t4, 16($gp)
  addu $t3, $t4, $t0
  addiu $t0, $t0, -1
  bgtz $t0, loop
.data
  .space 64
.text
)") + kExit;
  for (const auto& cfg :
       {base_machine(), bitsliced_machine(2, kAllTechniques)}) {
    const SimResult r = run(cfg, src);
    EXPECT_TRUE(r.exited);
    EXPECT_GT(r.stats.load_forwards, 1500u);
  }
}

// A load that only partially overlaps an older store must NOT forward; it
// waits and still commits correctly (verified by co-simulation).
TEST(CoreDirected, PartialOverlapDoesNotForward) {
  const std::string src = std::string(R"(
.text
main:
  li $t0, 500
loop:
  sb $t0, 17($gp)       # byte store inside the word
  lw $t4, 16($gp)       # word load overlapping it
  addu $t5, $t5, $t4
  addiu $t0, $t0, -1
  bgtz $t0, loop
.data
  .space 64
.text
)") + kExit;
  const SimResult r = run(bitsliced_machine(2, kAllTechniques), src);
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.stats.load_forwards, 0u);
}

// Heavy misprediction: recovery must keep the committed stream exact and
// count wrong-path dispatches.
TEST(CoreDirected, MispredictRecoveryCountsWrongPath) {
  const std::string src = std::string(R"(
.text
main:
  li $t0, 3000
  li $t9, 88172645
loop:
  sll $at, $t9, 13
  xor $t9, $t9, $at
  srl $at, $t9, 17
  xor $t9, $t9, $at
  sll $at, $t9, 5
  xor $t9, $t9, $at
  andi $t1, $t9, 1
  beq $t1, $0, even     # 50/50 data-dependent branch
  addiu $t2, $t2, 1
even:
  addiu $t0, $t0, -1
  bgtz $t0, loop
)") + kExit;
  const SimResult r = run(base_machine(), src);
  EXPECT_TRUE(r.exited);
  EXPECT_GT(r.stats.branch_mispredicts, 500u);
  EXPECT_GT(r.stats.bogus_dispatched, r.stats.branch_mispredicts)
      << "each recovery should have flushed some wrong-path work";
  EXPECT_GE(r.stats.dispatched, r.stats.committed + r.stats.bogus_dispatched)
      << "dispatched counts wrong-path dispatches too";
}

// early_resolved_branches counts every branch resolved before its last
// slice, not only mispredicts: straight-line never-taken beqs (predicted
// not-taken by the cold counters, so never mispredicted) whose operands
// differ in the low slice resolve early on a slice-by-2 machine.
TEST(CoreDirected, EarlyResolutionCountsCorrectlyPredictedBranches) {
  std::string src = ".text\nmain:\n  li $t1, 0x10000\n";
  for (int i = 0; i < 64; ++i)
    src += "  addiu $t0, $t0, 1\n  beq $t0, $t1, main\n";
  src += kExit;
  const SimResult r = run(bitsliced_machine(2, kAllTechniques), src);
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.stats.branch_mispredicts, 0u);
  EXPECT_GT(r.stats.early_resolved_branches, 0u);
}

// Call/return chains: the RAS should make jr $ra nearly free; the program
// must still commit the emulator's exact stream.
TEST(CoreDirected, CallReturnViaRas) {
  const std::string src = std::string(R"(
.text
main:
  li $s0, 2000
caller:
  jal callee
  jal callee
  addiu $s0, $s0, -1
  bgtz $s0, caller
  b done
callee:
  addiu $t0, $t0, 1
  jr $ra
done:
)") + kExit;
  const SimResult r = run(base_machine(), src);
  EXPECT_TRUE(r.exited);
  // 4000 returns; a working RAS leaves only cold-start jr mispredicts, each
  // costing a flush. Require almost no bogus work relative to commits.
  EXPECT_LT(r.stats.bogus_dispatched, r.stats.committed / 10);
}

// L1-missing pointer chase: hit-speculation must trigger load replays and
// selective slice-op replays (the wrongly woken consumers), and slicing must
// not change the committed count.
TEST(CoreDirected, MissChainTriggersSelectiveReplay) {
  const std::string src = std::string(R"(
.text
main:
  li $t0, 4000
  la $s0, region
  li $t9, 88172645
loop:
  sll $at, $t9, 13
  xor $t9, $t9, $at
  srl $at, $t9, 17
  xor $t9, $t9, $at
  sll $at, $t9, 5
  xor $t9, $t9, $at
  sll $t1, $t9, 12
  srl $t1, $t1, 14
  sll $t1, $t1, 2
  addu $t2, $s0, $t1
  lw $t3, 0($t2)        # usually misses (1 MB region)
  addu $t4, $t3, $t3    # dependents with no other obligations: they are
  addu $t5, $t3, $t1    # woken the moment the hit-speculated data "returns"
  xor $t6, $t3, $t9     # and must all replay when the miss is discovered
  addiu $t0, $t0, -1
  bgtz $t0, loop
.data
region: .space 1048576
.text
)") + kExit;
  const SimResult r = run(bitsliced_machine(2, kAllTechniques), src, 80'000);
  EXPECT_GT(r.stats.load_replays, 1000u);
  EXPECT_GT(r.stats.op_replays, 1000u)
      << "consumers woken under the hit assumption must have been replayed";
  EXPECT_GT(r.stats.l1d_misses, 1000u);
}

// RUU pressure: a long chain of serial divisions cannot deadlock; the
// watchdog stays quiet and everything commits.
TEST(CoreDirected, SerialDivisionsDoNotDeadlock) {
  const std::string src = std::string(R"(
.text
main:
  li $t0, 300
  li $t1, 1000000
  li $t2, 3
loop:
  div $t1, $t2
  mflo $t1
  mult $t1, $t2
  mflo $t3
  addiu $t1, $t3, 7
  addiu $t0, $t0, -1
  bgtz $t0, loop
)") + kExit;
  for (const auto& cfg :
       {base_machine(), bitsliced_machine(4, kAllTechniques)}) {
    const SimResult r = run(cfg, src);
    EXPECT_TRUE(r.exited);
    EXPECT_LT(r.stats.ipc(), 1.0) << "a div chain cannot be fast";
  }
}

// Variable shifts in the sliced machine: amount comes from slice 0 of rs;
// a tight sllv/srav chain must co-simulate at every width.
TEST(CoreDirected, VariableShiftChains) {
  const std::string src = std::string(R"(
.text
main:
  li $t0, 20000
  li $t1, 0x12345678
loop:
  andi $t2, $t0, 31
  sllv $t3, $t1, $t2
  srav $t4, $t3, $t2
  srlv $t5, $t4, $t2
  xor $t1, $t1, $t5
  addiu $t1, $t1, 13
  addiu $t0, $t0, -1
  bgtz $t0, loop
)") + kExit;
  for (const unsigned slices : {2u, 4u, 8u}) {
    const SimResult r = run(bitsliced_machine(slices, kAllTechniques), src);
    EXPECT_TRUE(r.exited) << "slices=" << slices;
  }
}

// Syscall output must match the emulator exactly (print syscalls flow
// through commit in order).
TEST(CoreDirected, SyscallOutputMatchesEmulator) {
  const std::string src = R"(
.text
main:
  li $t0, 5
loop:
  move $a0, $t0
  li $v0, 1
  syscall
  li $a0, 44          # ','
  li $v0, 11
  syscall
  addiu $t0, $t0, -1
  bgtz $t0, loop
  li $v0, 10
  li $a0, 0
  syscall
)";
  const Program p = compile(src);
  Emulator emu(p);
  emu.run(1u << 20);
  ASSERT_EQ(emu.output(), "5,4,3,2,1,");
  // The timing core routes syscalls through the same emulator at commit; a
  // clean exit plus co-simulation implies identical output.
  const SimResult r = simulate(bitsliced_machine(2, kAllTechniques), p,
                               1u << 20);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_code, 0);
}

// Early LSQ disambiguation must never let a load pass a store it actually
// conflicts with: stress with same-low-bits/different-high-bits addresses
// (the adversarial case for partial comparison) and rely on co-simulation.
TEST(CoreDirected, PartialDisambiguationAdversarialAliases) {
  const std::string src = std::string(R"(
.text
main:
  li $t0, 3000
  la $s0, a
  la $s1, b             # b = a + 64 KB: identical low 16 address bits
loop:
  andi $t1, $t0, 0xfc
  addu $t2, $s0, $t1
  addu $t3, $s1, $t1
  sw $t0, 0($t2)
  lw $t4, 0($t3)        # partially matches the store until bit 16
  sw $t4, 4($t3)
  lw $t5, 0($t2)        # true conflict: must see the sw value
  addu $t6, $t6, $t5
  addiu $t0, $t0, -1
  bgtz $t0, loop
.data
a: .space 65536
b: .space 1024
.text
)") + kExit;
  for (const unsigned slices : {2u, 4u}) {
    const SimResult r = run(bitsliced_machine(slices, kAllTechniques), src);
    EXPECT_TRUE(r.exited) << "slices=" << slices;
    EXPECT_GT(r.stats.load_forwards, 0u);
  }
}

}  // namespace
}  // namespace bsp
