// Built-in named campaigns: the paper's figure, table and ablation sweeps on
// the campaign engine. Each is a SweepSpec factory (default budgets 200k
// measured after a 300k warm-up, seed 0x5eed) plus, where the paper's
// rendering is more than an IPC grid, a report that prints it from the
// campaign's records: `fig11` renders Figures 11 and 12 from one run,
// `table1` Table 1, `abl_seeds` and `abl_extensions` their derived columns.
// `abl_slice_width` and `abl_sam` are plain IPC grids (summary_table).
//
// Every campaign warms functionally and simulates only the last 10k warm-up
// commits in detail. That gives the all-detailed IPC (identical cycles on
// every task of every campaign at its default seeds, and of fig11 at
// 0x1234 too), while the dispatch-side counters (dispatched, bogus_dispatched,
// idle_cycles_skipped) differ on some tasks. `bsp-sweep --detailed-warmup
// 300000` (any N >= the warm-up) is the detailed reference path, whose
// reports print exactly what the retired bench drivers printed.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/spec.hpp"

namespace bsp::campaign {

struct BuiltinCampaign {
  std::string name;
  std::string description;
  SweepSpec (*make)();
  // Prints the campaign's paper rendering (tables as CSV when `csv`) from a
  // report whose every task is ok; bsp-sweep prints summary_table instead
  // when the report is incomplete or this is nullptr.
  void (*report)(const SweepSpec& spec, const CampaignReport& report,
                 bool csv, std::ostream& os) = nullptr;
};

const std::vector<BuiltinCampaign>& builtin_campaigns();

// nullptr when unknown.
const BuiltinCampaign* find_campaign(const std::string& name);

}  // namespace bsp::campaign
