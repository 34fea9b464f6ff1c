#include "campaign/builtin.hpp"

#include "workloads/workloads.hpp"

namespace bsp::campaign {
namespace {

MachinePoint base_point() {
  MachinePoint p;
  p.label = "base (ideal)";
  p.kind = MachineKind::Base;
  return p;
}

MachinePoint simple_point(unsigned slices, const std::string& label) {
  MachinePoint p;
  p.label = label;
  p.kind = MachineKind::Simple;
  p.slices = slices;
  return p;
}

MachinePoint sliced_point(unsigned slices, TechniqueSet techniques,
                          const std::string& label) {
  MachinePoint p;
  p.label = label;
  p.kind = MachineKind::Sliced;
  p.slices = slices;
  p.techniques = techniques;
  return p;
}

// Detailed warm-up tail of the paper campaigns: the earlier warm-up
// commits are warmed functionally (TaskSpec::detailed_warmup).
constexpr u64 kPaperDetailedWarmup = 10'000;

// The Figures 11/12 cumulative stacks as machine points, labels prefixed
// with the slice count so the x2 and x4 columns stay distinguishable.
void append_stack(std::vector<MachinePoint>& points, unsigned slices) {
  // (std::string lvalue first: gcc-12 Release -Wrestrict false positive on
  // `const char* + std::string&&`.)
  std::string prefix = "x";
  prefix += std::to_string(slices);
  prefix += ' ';
  for (const StackPoint& sp : technique_stack(slices)) {
    MachinePoint p;
    p.label = prefix + sp.label;
    p.slices = slices;
    if (sp.config.core.techniques == kNoTechniques) {
      p.kind = MachineKind::Simple;
    } else {
      p.kind = MachineKind::Sliced;
      p.techniques = sp.config.core.techniques;
    }
    points.push_back(std::move(p));
  }
}

SweepSpec make_fig11() {
  SweepSpec spec;
  spec.name = "fig11";
  spec.detailed_warmup = kPaperDetailedWarmup;
  spec.workloads = workload_names();
  spec.machines.push_back(base_point());
  append_stack(spec.machines, 2);
  append_stack(spec.machines, 4);
  return spec;
}

SweepSpec make_fig12() {
  SweepSpec spec;
  spec.name = "fig12";
  spec.detailed_warmup = kPaperDetailedWarmup;
  spec.workloads = workload_names();
  append_stack(spec.machines, 2);
  append_stack(spec.machines, 4);
  return spec;
}

SweepSpec make_abl_slice_width() {
  SweepSpec spec;
  spec.name = "abl_slice_width";
  spec.detailed_warmup = kPaperDetailedWarmup;
  // The ablation driver's default subset; override with -w for more.
  spec.workloads = {"bzip", "ijpeg", "li", "vortex"};
  spec.machines.push_back(base_point());
  for (const unsigned s : {2u, 4u, 8u})
    spec.machines.push_back(sliced_point(
        s, kAllTechniques, std::string("x") + std::to_string(s) +
                               " full bit-slice"));
  for (const unsigned s : {2u, 4u, 8u})
    spec.machines.push_back(
        simple_point(s, std::string("x") + std::to_string(s) + " simple"));
  return spec;
}

}  // namespace

const std::vector<BuiltinCampaign>& builtin_campaigns() {
  static const std::vector<BuiltinCampaign> campaigns = {
      {"fig11",
       "Figure 11: IPC of the bit-sliced machine (base + x2/x4 technique "
       "stacks, full suite)",
       &make_fig11},
      {"fig12",
       "Figure 12: speed-up decomposition over simple pipelining (x2/x4 "
       "technique stacks, full suite)",
       &make_fig12},
      {"abl_slice_width",
       "Ablation: slice-width sweep (x2/x4/x8, full stack vs simple "
       "pipelining)",
       &make_abl_slice_width},
  };
  return campaigns;
}

const BuiltinCampaign* find_campaign(const std::string& name) {
  for (const auto& c : builtin_campaigns())
    if (c.name == name) return &c;
  return nullptr;
}

}  // namespace bsp::campaign
