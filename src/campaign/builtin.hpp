// Built-in named campaigns: the paper sweeps ported from hand-rolled bench
// driver loops onto the campaign engine. Each is a SweepSpec factory with
// the same default budgets, seeds and configuration stacks as the legacy
// driver it mirrors. The drivers simulate every warm-up commit in detail;
// the campaigns warm functionally and simulate only the last 10k warm-up
// commits in detail. On fig11 and abl_slice_width that gives the drivers'
// IPC (identical cycles on every task at seeds 0x5eed and 0x1234), while
// the dispatch-side counters (dispatched, bogus_dispatched,
// idle_cycles_skipped) differ on some tasks. `bsp-sweep --detailed-warmup
// 300000` (any N >= the warm-up) is the detailed reference path, whose
// SimStats equal the drivers' exactly.
#pragma once

#include <string>
#include <vector>

#include "campaign/spec.hpp"

namespace bsp::campaign {

struct BuiltinCampaign {
  std::string name;
  std::string description;
  SweepSpec (*make)();
};

const std::vector<BuiltinCampaign>& builtin_campaigns();

// nullptr when unknown.
const BuiltinCampaign* find_campaign(const std::string& name);

}  // namespace bsp::campaign
