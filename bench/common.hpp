// Shared plumbing for the bench drivers: CLI parsing (on the shared
// util/cli.hpp parser the campaign tools also use), the standard header
// (Table 2 machine description), and the machine configurations from
// src/config.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "config/machine_config.hpp"
#include "core/simulator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads/workloads.hpp"

namespace bsp::bench {

struct Options {
  u64 instructions = 200'000;  // committed/visited instructions per run
  u64 warmup = 300'000;        // timing-run warm-up (statistics discarded;
                               // stands in for the paper's 1 B fast-forward)
  u64 skip = 10'000;           // trace-study warm-up (trace-driven only)
  bool csv = false;
  bool print_config = false;
  std::vector<std::string> workloads;  // empty = the full suite

  const std::vector<std::string>& workload_list() const {
    return workloads.empty() ? workload_names() : workloads;
  }
};

// Registers the options every driver shares on `parser`. The campaign CLI
// (tools/bsp-sweep.cpp) registers the same core set plus its own; keeping
// the flags and help text here is what keeps the two front ends consistent.
inline void register_common_options(ArgParser& parser, Options& opt) {
  parser.add_value("-n, --instructions", "N",
                   "measured instructions per run (default " +
                       std::to_string(opt.instructions) + ")",
                   &opt.instructions);
  parser.add_value("--warmup", "N",
                   "discarded timing warm-up (default " +
                       std::to_string(opt.warmup) + ")",
                   &opt.warmup);
  parser.add_value("--skip", "N", "trace warm-up instructions", &opt.skip);
  parser.add_value("-w, --workload", "NAME",
                   "restrict to one benchmark (repeatable)", &opt.workloads);
  parser.add_flag("--csv", "machine-readable output", &opt.csv);
}

inline Options parse_options(int argc, char** argv, const char* what) {
  Options opt;
  ArgParser parser(what);
  register_common_options(parser, opt);
  parser.add_flag("--print-config",
                  "dump the Table-2 machine configuration",
                  &opt.print_config);
  parser.parse(argc, argv);
  return opt;
}

inline void print_header(const Options& opt, const char* title) {
  std::cout << "== " << title << " ==\n";
  if (opt.print_config) {
    std::cout << "\nMachine configuration (paper Table 2):\n"
              << base_machine().describe() << "\n";
  }
}

inline void emit(const Options& opt, const Table& table) {
  if (opt.csv)
    table.print_csv(std::cout);
  else
    table.print(std::cout);
  std::cout << "\n";
}

// Runs one timing simulation, aborting the bench on any co-simulation error.
// (The campaign engine deliberately does NOT use this: bsp-sweep records the
// error and carries on — see src/campaign/scheduler.hpp.)
inline SimStats run_sim(const MachineConfig& cfg, const Program& program,
                        u64 commits, u64 warmup = 0) {
  const SimResult r = simulate(cfg, program, commits, warmup);
  if (!r.ok()) {
    std::cerr << "simulation error: " << r.error << "\n";
    std::exit(1);
  }
  return r.stats;
}

}  // namespace bsp::bench
