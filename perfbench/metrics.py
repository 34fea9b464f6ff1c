"""Metric definitions and the arithmetic behind them.

bsp-perfbench (harness.cpp) writes what it measured as raw JSON; this
module turns one workload's raw record into named metrics. Every metric
has exactly one entry in END_TO_END or PER_LAYER, which give its unit.
"""

import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# name -> (unit, better). Reported with --trace 0, tracing off.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "task_p50_s": ("s", "lower"),
    "task_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

CPI_LEAVES = (
    "base", "fe_icache", "fe_fill", "br_squash", "ruu_full", "slice_low",
    "slice_chain", "exec_unit", "br_resolve", "lsq_disambig", "dcache",
    "partial_tag", "spec_forward", "store_data", "drain", "other",
)
PHASES = ("fetch", "dispatch", "select", "memory", "resolve", "commit")

# name -> unit. Reported with --trace 1.
PER_LAYER = {
    "model.ipc_gap_x2_pct": "%",
    "model.sampled_ipc_err_pct": "%",
    "trace.overhead_pct": "%",
    "workloads.build_ms": "ms",
    "emu.step_per_s": "1/s",
    "emu.run_fast_per_s": "1/s",
    "emu.ckpt_save_ms": "ms",
    "emu.ckpt_load_ms": "ms",
    "emu.ckpt_bytes": "bytes",
    "core.commit_ns.base": "ns",
    "core.commit_ns.x2": "ns",
    "core.commit_ns.x4": "ns",
    "core.cycle_ns": "ns",
    "core.cosim_share": "ratio",
    **{f"core.phase.{p}_share": "ratio" for p in PHASES},
    "core.cycles": "count",
    "core.committed": "count",
    "core.wrong_path_share": "ratio",
    "core.op_replays_per_kcommit": "1/kcommit",
    "core.load_replays_per_kcommit": "1/kcommit",
    "core.idle_skip_share": "ratio",
    "mem.l1d_miss_ratio": "ratio",
    "mem.way_mispredict_ratio": "ratio",
    "lsq.early_issue_share": "ratio",
    "lsq.forward_share": "ratio",
    "branch.mispredict_ratio": "ratio",
    "branch.early_resolve_share": "ratio",
    **{f"cpi.{leaf}": "1/kslot" for leaf in CPI_LEAVES},
    "sampling.prewarm_share": "ratio",
    "sampling.interval_p50_share": "ratio",
    "sampling.interval_max_share": "ratio",
    "sampling.spawn_overhead_share": "ratio",
    "sampling.parallel_efficiency": "ratio",
    "sampling.ipc_ci95": "ipc",
    "campaign.prewarm_share": "ratio",
    "campaign.ckpt_hit_ratio": "ratio",
    "campaign.task_overhead_share": "ratio",
    "campaign.slot_idle_share": "ratio",
    "campaign.retries": "count",
    "util.spawn_ms": "ms",
}

# Percentiles a tail may be reported at, highest last.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return ordered[int(rank) - 1]


def tail_percentile(n):
    """Highest ladder percentile with at least ten of n samples beyond it,
    or None when n is too small for any (fewer than 20 samples)."""
    best = None
    for p in TAIL_LADDER:
        if int(n * (100 - p) / 100 + 1e-9) >= 10:
            best = p
    return best


def tail(values):
    """(percentile, value) of the tail; the median when n < 20."""
    p = tail_percentile(len(values)) or 50
    return p, percentile(values, p)


def union_length(intervals):
    """Total length covered by possibly overlapping (start, end) pairs."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """span id -> its duration minus the union of its children's intervals
    (clipped to the span)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])]
        covered = union_length([(a, b) for a, b in kids if b > a])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def span_summary(spans):
    """name -> {count, total_s, self_s} over every span of that name."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def untraced(run):
    return [r for r in run["reps"] if not r["traced"]]


def end_to_end(run, peak_rss_mb):
    reps = untraced(run)
    durs = [t["dur_s"] for r in reps for t in r["tasks"]]
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "task_p50_s": percentile(durs, 50),
        "task_tail_s": tail(durs)[1],
        "peak_rss_mb": peak_rss_mb,
    }


def issue_table(run, peak_rss_mb):
    """Every end-to-end figure the workload defines, including the ones
    that exist on one workload only (None where not applicable)."""
    reps = untraced(run)
    e2e = end_to_end(run, peak_rss_mb)
    durs = [t["dur_s"] for r in reps for t in r["tasks"]]
    p, _ = tail(durs)
    attempted = sum(r["attempted"] for r in run["reps"])
    failed = sum(r["failed"] for r in run["reps"])

    def leg(name):
        if name not in reps[0]["legs"]:
            return None
        return statistics.median(r["legs"][name] for r in reps)

    wl = run["workload"]
    err = statistics.median(r["ipc_err_pct"] for r in reps)
    mono_rate = None
    if wl == "sampled":
        mono_rate = statistics.median(
            r["extra"]["mono_commits"] / r["legs"]["mono_s"] for r in reps)
    rows = [
        ("setup_s", e2e["setup_s"], "s"),
        ("wall_s", e2e["wall_s"], "s"),
        ("task_p50_s", e2e["task_p50_s"], "s"),
        (f"task_tail_s (p{p:g} of {len(durs)}, "
         f"{int(len(durs) * (100 - p) / 100 + 1e-9)} beyond)",
         e2e["task_tail_s"], "s"),
        ("mono_commits_per_s", mono_rate, "commits/s"),
        ("sampled_wall_s", leg("sampled_s"), "s"),
        ("sampled_ipc_err_pct",
         err if wl == "sampled" else None, "%"),
        ("cold_wall_s", leg("cold_s"), "s"),
        ("warm_wall_s", leg("warm_s"), "s"),
        ("ipc_gap_x2_pct",
         err if wl != "sampled" else None, "%"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("failed_share", _ratio(failed, attempted), "ratio"),
    ]
    return rows


def per_layer(run, spans):
    probe = run["probe"]
    reps = run["reps"]
    m = {}

    # Deterministic model accuracy, the same in every repetition.
    err = reps[0]["ipc_err_pct"]
    sampled = run["workload"] == "sampled"
    m["model.ipc_gap_x2_pct"] = 0.0 if sampled else err
    m["model.sampled_ipc_err_pct"] = err if sampled else 0.0

    traced = [r["wall_s"] for r in reps if r["traced"]]
    plain = [r["wall_s"] for r in reps if not r["traced"]]
    m["trace.overhead_pct"] = (statistics.median(traced)
                               / statistics.median(plain) - 1) * 100

    builds = [s["end"] - s["start"] for s in spans
              if s["name"] == "workloads.build_workload"]
    m["workloads.build_ms"] = statistics.median(builds) * 1e3

    m["emu.step_per_s"] = probe["step_instr"] / probe["step_s"]
    m["emu.run_fast_per_s"] = probe["fast_instr"] / probe["fast_s"]
    m["emu.ckpt_save_ms"] = probe["ckpt_save_s"] / probe["ckpt_n"] * 1e3
    m["emu.ckpt_load_ms"] = probe["ckpt_load_s"] / probe["ckpt_n"] * 1e3
    m["emu.ckpt_bytes"] = probe["ckpt_bytes"] / probe["ckpt_n"]

    sims = probe["sims"]
    for k in ("base", "x2", "x4"):
        m[f"core.commit_ns.{k}"] = (sims[k]["seconds"]
                                    / sims[k]["stats"]["committed"] * 1e9)
    m["core.cycle_ns"] = (sims["x2"]["seconds"]
                          / sims["x2"]["stats"]["cycles"] * 1e9)
    m["core.cosim_share"] = 1 - (sims["x2_cosim_off"]["seconds"]
                                 / sims["x2"]["seconds"])
    phases = sims["x2_profiled"]["phases"]
    total = sum(phases[p] for p in PHASES)
    for p in PHASES:
        m[f"core.phase.{p}_share"] = _ratio(phases[p], total)

    s = sims["x2_cpi"]["stats"]
    m["core.cycles"] = s["cycles"]
    m["core.committed"] = s["committed"]
    m["core.wrong_path_share"] = _ratio(s["bogus_dispatched"],
                                        s["dispatched"])
    m["core.op_replays_per_kcommit"] = _ratio(s["op_replays"] * 1e3,
                                              s["committed"])
    m["core.load_replays_per_kcommit"] = _ratio(s["load_replays"] * 1e3,
                                                s["committed"])
    m["core.idle_skip_share"] = _ratio(s["idle_cycles_skipped"], s["cycles"])
    m["mem.l1d_miss_ratio"] = _ratio(s["l1d_misses"],
                                     s["l1d_hits"] + s["l1d_misses"])
    m["mem.way_mispredict_ratio"] = _ratio(s["way_mispredicts"],
                                           s["partial_tag_accesses"])
    m["lsq.early_issue_share"] = _ratio(s["loads_issued_partial_lsq"],
                                        s["loads"])
    m["lsq.forward_share"] = _ratio(s["load_forwards"], s["loads"])
    m["branch.mispredict_ratio"] = _ratio(s["branch_mispredicts"],
                                          s["branches"])
    m["branch.early_resolve_share"] = _ratio(s["early_resolved_branches"],
                                             s["branches"])
    slots = s["cycles"] * probe["commit_width"]
    for leaf in CPI_LEAVES:
        m[f"cpi.{leaf}"] = _ratio(s[f"cpi_{leaf}"] * 1e3, slots)

    m.update(_sampling_layer(run) if run["workload"] == "sampled"
             else {k: 0.0 for k in PER_LAYER if k.startswith("sampling.")})
    m.update(_campaign_layer(run) if run["workload"] != "sampled"
             else {k: 0.0 for k in PER_LAYER if k.startswith("campaign.")})
    m["util.spawn_ms"] = statistics.median(probe["spawn_ms"])
    return m


def _sampling_layer(run):
    reps = run["reps"]
    leg_walls = {}  # (rep index, program) -> sampled leg wall
    by_leg = {}
    for i, r in enumerate(reps):
        for key, v in r["extra"].items():
            if key.startswith("sampled_wall_s_"):
                leg_walls[(i, key[len("sampled_wall_s_"):])] = v
        for t in r["tasks"]:
            by_leg.setdefault((i, t["id"].split("/")[1]), []).append(t)
    durs = [t["dur_s"] for ts in by_leg.values() for t in ts]
    hosts = [t["host_s"] for ts in by_leg.values() for t in ts]
    sampled = sum(leg_walls.values())
    slots = reps[0]["extra"]["slots"]
    return {
        "sampling.prewarm_share": _ratio(
            sum(r["extra"]["sampling_prewarm_s"] for r in reps), sampled),
        "sampling.interval_p50_share": _ratio(
            statistics.median(durs), statistics.median(leg_walls.values())),
        "sampling.interval_max_share": statistics.median(
            max(t["dur_s"] for t in ts) / leg_walls[leg]
            for leg, ts in by_leg.items()),
        "sampling.spawn_overhead_share": _ratio(sum(durs) - sum(hosts),
                                                sum(durs)),
        "sampling.parallel_efficiency": _ratio(sum(durs), sampled * slots),
        "sampling.ipc_ci95": statistics.mean(r["extra"]["ipc_ci95"]
                                             for r in reps),
    }


def _campaign_layer(run):
    reps = run["reps"]
    tasks = [t for r in reps for t in r["tasks"]]
    durs = sum(t["dur_s"] for t in tasks)
    slot_time = sum(r["wall_s"] * r["extra"]["slots"] for r in reps)
    hits = sum(r["extra"].get("ckpt_hits", 0) for r in reps)
    misses = sum(r["extra"].get("ckpt_misses", 0) for r in reps)
    return {
        "campaign.prewarm_share": _ratio(
            sum(r["extra"].get("prewarm_s", 0) for r in reps), slot_time),
        "campaign.ckpt_hit_ratio": _ratio(hits, hits + misses),
        "campaign.task_overhead_share": _ratio(
            sum(t["dur_s"] - t["host_s"] - t["ffwd_s"] for t in tasks), durs),
        "campaign.slot_idle_share": 1 - _ratio(durs, slot_time),
        "campaign.retries": sum(t["attempts"] - 1 for t in tasks),
    }
