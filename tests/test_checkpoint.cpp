// Checkpoint tests: capture/restore round trips, serialisation, and timing
// runs started from a checkpoint.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "asm/assembler.hpp"
#include "core/simulator.hpp"
#include "emu/checkpoint.hpp"
#include "obs/interval.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace bsp {
namespace {

TEST(Checkpoint, CaptureRestoreResumesExactly) {
  const Workload w = build_workload("gzip");
  // Reference: run 50k straight.
  Emulator ref(w.program);
  ref.run(50'000);

  // Split run: 20k, capture, restore into a fresh emulator, 30k more.
  Emulator first(w.program);
  first.run(20'000);
  const Checkpoint ckpt = capture_checkpoint(first);
  EXPECT_EQ(ckpt.retired, 20'000u);

  Emulator second(w.program);
  restore_checkpoint(second, ckpt);
  EXPECT_EQ(second.pc(), first.pc());
  second.run(30'000);

  EXPECT_EQ(second.pc(), ref.pc());
  for (unsigned i = 0; i < kNumRegs; ++i)
    EXPECT_EQ(second.reg(i), ref.reg(i)) << "reg " << i;
  EXPECT_EQ(second.hi(), ref.hi());
  EXPECT_EQ(second.lo(), ref.lo());
  EXPECT_EQ(second.instructions_retired(), ref.instructions_retired());
}

TEST(Checkpoint, SerialisationRoundTrip) {
  const Workload w = build_workload("li");
  const auto ckpt = fast_forward(w.program, 30'000);
  ASSERT_TRUE(ckpt.has_value());

  std::stringstream buf;
  ASSERT_TRUE(save_checkpoint(*ckpt, buf));
  std::string error;
  const auto loaded = load_checkpoint(buf, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->pc, ckpt->pc);
  EXPECT_EQ(loaded->regs, ckpt->regs);
  EXPECT_EQ(loaded->hi, ckpt->hi);
  EXPECT_EQ(loaded->lo, ckpt->lo);
  EXPECT_EQ(loaded->retired, ckpt->retired);
  ASSERT_EQ(loaded->pages.size(), ckpt->pages.size());
  for (std::size_t i = 0; i < ckpt->pages.size(); ++i) {
    EXPECT_EQ(loaded->pages[i].base, ckpt->pages[i].base);
    EXPECT_EQ(loaded->pages[i].bytes, ckpt->pages[i].bytes);
  }
}

TEST(Checkpoint, RejectsGarbageAndTruncation) {
  std::string error;
  std::stringstream junk("garbage");
  EXPECT_FALSE(load_checkpoint(junk, &error).has_value());

  const Workload w = build_workload("go");
  const auto ckpt = fast_forward(w.program, 1'000);
  ASSERT_TRUE(ckpt.has_value());
  std::stringstream buf;
  ASSERT_TRUE(save_checkpoint(*ckpt, buf));
  const std::string whole = buf.str();
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    std::stringstream part(
        whole.substr(0, rng.below(static_cast<u32>(whole.size()))));
    EXPECT_FALSE(load_checkpoint(part).has_value());
  }
}

TEST(Checkpoint, RejectsHostileHeaders) {
  // A corrupt or malicious header must produce a clear error without
  // ballooning allocations — workers load cache files other processes
  // wrote, so the loader cannot trust any field.
  const Workload w = build_workload("go");
  const auto ckpt = fast_forward(w.program, 1'000);
  ASSERT_TRUE(ckpt.has_value());
  std::stringstream buf;
  ASSERT_TRUE(save_checkpoint(*ckpt, buf));
  const std::string pristine = buf.str();

  // Layout: magic, version, pc, 32 regs, 32 fp regs, fcc, hi, lo,
  // retired lo/hi, page_count — all u32s — then (base, page bytes) pairs.
  const std::size_t page_count_off = (2 + 1 + 32 + 32 + 1 + 2 + 2) * 4;
  const std::size_t first_base_off = page_count_off + 4;
  const std::size_t second_base_off =
      first_base_off + 4 + SparseMemory::kPageSize;
  const auto read_u32 = [&](const std::string& b, std::size_t off) {
    u32 v = 0;
    for (int i = 0; i < 4; ++i)
      v |= u32{static_cast<u8>(b[off + static_cast<std::size_t>(i)])}
           << (8 * i);
    return v;
  };
  const auto with_u32 = [&](std::size_t off, u32 v) {
    std::string b = pristine;
    for (int i = 0; i < 4; ++i)
      b[off + static_cast<std::size_t>(i)] = static_cast<char>(v >> (8 * i));
    return b;
  };
  const auto expect_error = [&](const std::string& bytes, const char* why) {
    std::string error;
    std::stringstream is(bytes);
    EXPECT_FALSE(load_checkpoint(is, &error).has_value());
    EXPECT_EQ(error, why);
  };

  // Page count far beyond the bytes actually present: rejected before any
  // page allocation (the stream is seekable, so the size cross-check runs).
  expect_error(with_u32(page_count_off, 0xfffffu),
               "page count exceeds file size");
  // Absurd page count: the hard bound rejects it on any stream.
  expect_error(with_u32(page_count_off, 0xffffffffu),
               "implausible page count");
  // Misaligned page base.
  expect_error(with_u32(first_base_off,
                        read_u32(pristine, first_base_off) + 2),
               "misaligned page base");
  // Duplicate page (ascending-order violation). Needs >= 2 pages.
  ASSERT_GE(ckpt->pages.size(), 2u);
  expect_error(with_u32(second_base_off,
                        read_u32(pristine, first_base_off)),
               "pages not in ascending order");

  // And the pristine image still loads.
  std::string error;
  std::stringstream is(pristine);
  EXPECT_TRUE(load_checkpoint(is, &error).has_value()) << error;
}

TEST(Checkpoint, CaptureRestoreCaptureIsByteIdentical) {
  // Paging-heavy kernel: mcf chases pointers across a large arena, so the
  // checkpoint carries many pages. restore must reproduce every page byte
  // so that a re-capture serialises to the identical BSPC image.
  const Workload w = build_workload("mcf");
  Emulator emu(w.program);
  emu.run(120'000);
  const Checkpoint first = capture_checkpoint(emu);
  EXPECT_GE(first.pages.size(), 8u) << "want a paging-heavy image";

  Emulator other(w.program);
  restore_checkpoint(other, first);
  const Checkpoint second = capture_checkpoint(other);

  std::stringstream a, b;
  ASSERT_TRUE(save_checkpoint(first, a));
  ASSERT_TRUE(save_checkpoint(second, b));
  EXPECT_EQ(a.str(), b.str());  // byte-for-byte equal serialisations
}

std::string serialised(const Checkpoint& ckpt) {
  std::stringstream os;
  EXPECT_TRUE(save_checkpoint(ckpt, os));
  return os.str();
}

TEST(Checkpoint, RestoresFromOneCheckpointDivergeIndependently) {
  // Two emulators restored from one checkpoint must not alias its pages or
  // each other's: each ends exactly where a straight run ends, and the
  // checkpoint itself does not change.
  const Workload w = build_workload("mcf");
  const auto ckpt = fast_forward(w.program, 50'000);
  ASSERT_TRUE(ckpt.has_value());
  const std::string before = serialised(*ckpt);

  Emulator a(w.program), b(w.program);
  restore_checkpoint(a, *ckpt);
  restore_checkpoint(b, *ckpt);
  a.run(20'000);
  b.run(5'000);

  Emulator ref_a(w.program), ref_b(w.program);
  ref_a.run(70'000);
  ref_b.run(55'000);
  EXPECT_EQ(serialised(capture_checkpoint(a)),
            serialised(capture_checkpoint(ref_a)));
  EXPECT_EQ(serialised(capture_checkpoint(b)),
            serialised(capture_checkpoint(ref_b)));
  EXPECT_EQ(serialised(*ckpt), before);
}

TEST(Checkpoint, ConcurrentSimulatorsFromOneCheckpoint) {
  // Campaign workers build many simulators from one cached checkpoint at
  // once (the in-process memo hands every task the same Checkpoint); doing
  // so must not change any simulated counter.
  const Workload w = build_workload("mcf");
  const auto ckpt = fast_forward(w.program, 50'000);
  ASSERT_TRUE(ckpt.has_value());
  const MachineConfig cfg = bitsliced_machine(2, kAllTechniques);
  const auto simulate = [&] {
    Simulator sim(cfg, w.program, *ckpt);
    return sim.run(4'000, 1'000);
  };
  const SimResult serial = simulate();
  ASSERT_TRUE(serial.ok()) << serial.error;

  std::vector<SimResult> results(4);
  std::vector<std::thread> threads;
  for (SimResult& r : results)
    threads.emplace_back([&simulate, &r] { r = simulate(); });
  for (std::thread& t : threads) t.join();
  for (const SimResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    for (const obs::CounterDesc& c : obs::simstats_counters())
      EXPECT_EQ(r.stats.*c.field, serial.stats.*c.field) << c.name;
  }
}

TEST(Checkpoint, FastForwardFailsOnExitedProgram) {
  const AsmResult r = assemble(
      ".text\nmain:\n  li $v0, 10\n  li $a0, 0\n  syscall\n");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(fast_forward(r.program, 1'000'000).has_value());
}

TEST(Checkpoint, SimulatorStartsFromCheckpointAndCoSimulates) {
  const Workload w = build_workload("vortex");
  const auto ckpt = fast_forward(w.program, 100'000);
  ASSERT_TRUE(ckpt.has_value());

  Simulator sim(bitsliced_machine(2, kAllTechniques), w.program, *ckpt);
  const SimResult r = sim.run(30'000);
  ASSERT_TRUE(r.ok()) << r.error;  // co-simulation from the restored state
  EXPECT_EQ(r.stats.committed, 30'000u);
}

TEST(Checkpoint, CheckpointedRunMatchesFastForwardedRunExactly) {
  // Timing from a checkpoint == timing of the same region reached by
  // letting the simulator itself run there (with identical *cold*
  // microarchitectural state, only the architectural start differs): the
  // cycle counts will differ (cold vs warm caches), but the committed
  // stream must be the same instructions — guaranteed by co-simulation —
  // and both runs must succeed.
  const Workload w = build_workload("bzip");
  const auto ckpt = fast_forward(w.program, 60'000);
  ASSERT_TRUE(ckpt.has_value());
  Simulator from_ckpt(base_machine(), w.program, *ckpt);
  const SimResult a = from_ckpt.run(20'000);
  ASSERT_TRUE(a.ok()) << a.error;

  Simulator whole(base_machine(), w.program);
  const SimResult b = whole.run(20'000, 60'000);
  ASSERT_TRUE(b.ok()) << b.error;
  EXPECT_EQ(a.stats.committed, b.stats.committed);
}

}  // namespace
}  // namespace bsp
