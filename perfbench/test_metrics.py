"""Tests of the benchmark's own arithmetic and metric registry.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import unittest
from pathlib import Path

import metrics

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TailRule(unittest.TestCase):
    def test_highest_ladder_percentile_with_ten_beyond(self):
        self.assertEqual(metrics.tail_percentile(143), 90)  # 14.3 beyond p90
        self.assertEqual(metrics.tail_percentile(100), 90)  # exactly 10
        self.assertEqual(metrics.tail_percentile(199), 90)  # 9.95 < 10 at p95
        self.assertEqual(metrics.tail_percentile(200), 95)
        self.assertEqual(metrics.tail_percentile(1000), 99)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)
        self.assertEqual(metrics.tail_percentile(40), 75)
        self.assertEqual(metrics.tail_percentile(20), 50)
        self.assertIsNone(metrics.tail_percentile(19))

    def test_every_choice_leaves_ten_samples_beyond(self):
        for n in list(range(20, 400)) + [999, 1000, 1999, 10000]:
            p = metrics.tail_percentile(n)
            values = range(n)  # distinct: n - 1 - v samples beyond v
            beyond = n - 1 - metrics.percentile(values, p)
            self.assertGreaterEqual(beyond, 10, (n, p))
            higher = [q for q in metrics.TAIL_LADDER if q > p]
            if higher:
                v = metrics.percentile(values, higher[0])
                self.assertLess(n - 1 - v, 10, (n, p))

    def test_small_samples_fall_back_to_the_median(self):
        self.assertEqual(metrics.tail([3, 1, 2]), (50, 2))

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(values, 99.9), 100)
        self.assertEqual(metrics.percentile([7], 90), 7)


def span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name, "request": ""}


class SelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = [
            span(1, 0, 0.0, 10.0),
            span(2, 1, 1.0, 4.0),
            span(3, 1, 3.0, 6.0),   # overlaps span 2: union [1, 6]
            span(4, 1, 8.0, 9.0),
            span(5, 1, 9.0, 12.0),  # runs past its parent: clipped to 10
            span(6, 2, 1.5, 2.5),   # grandchild: only its own parent's
        ]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(selfs[2], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[3], 3.0)
        self.assertAlmostEqual(selfs[6], 1.0)

    def test_concurrent_children_covering_the_parent_leave_nothing(self):
        spans = [span(1, 0, 0.0, 4.0)] + [
            span(i, 1, 0.0, 4.0) for i in range(2, 6)]
        self.assertAlmostEqual(metrics.self_times(spans)[1], 0.0)

    def test_union_length(self):
        self.assertEqual(metrics.union_length([]), 0.0)
        self.assertEqual(metrics.union_length([(0, 1), (2, 3)]), 2)
        self.assertEqual(metrics.union_length([(0, 5), (1, 2), (4, 7)]), 7)

    def test_summary_sums_per_name(self):
        spans = [span(1, 0, 0.0, 2.0, "a"), span(2, 1, 0.5, 1.0, "b"),
                 span(3, 1, 1.0, 1.5, "b")]
        s = metrics.span_summary(spans)
        self.assertEqual(s["b"]["count"], 2)
        self.assertAlmostEqual(s["b"]["total_s"], 1.0)
        self.assertAlmostEqual(s["a"]["self_s"], 1.0)


class Registry(unittest.TestCase):
    def names(self):
        return list(metrics.END_TO_END) + list(metrics.PER_LAYER)

    def test_metric_names_match_the_name_rule(self):
        for name in self.names():
            self.assertRegex(name, metrics.NAME_RE)
            self.assertLessEqual(len(name), 64)
            self.assertTrue(name[0].isalnum(), name)
        for bad in ("a b", "x/y", "", "é"):
            self.assertIsNone(metrics.NAME_RE.match(bad), bad)
        self.assertEqual(len(self.names()), len(set(self.names())))

    def test_every_metric_carries_a_unit(self):
        for name, (unit, better) in metrics.END_TO_END.items():
            self.assertRegex(unit, UNIT_RE, name)
            self.assertIn(better, ("lower", "higher"), name)
        for name, unit in metrics.PER_LAYER.items():
            self.assertRegex(unit, UNIT_RE, name)

    def test_benchmark_json_lists_exactly_these_metrics(self):
        spec = json.loads(BENCHMARK.read_text())
        e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
        self.assertEqual(e2e, metrics.END_TO_END)
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(layer, metrics.PER_LAYER)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


def fake_run(workload):
    """A minimal raw record of the shape bsp-perfbench writes."""
    stats = {c: 10 for c in (
        "cycles", "committed", "dispatched", "bogus_dispatched", "op_replays",
        "load_replays", "idle_cycles_skipped", "l1d_hits", "l1d_misses",
        "way_mispredicts", "partial_tag_accesses", "loads_issued_partial_lsq",
        "loads", "load_forwards", "branch_mispredicts", "branches",
        "early_resolved_branches")}
    stats.update({f"cpi_{leaf}": 1 for leaf in metrics.CPI_LEAVES})
    sim = {"seconds": 0.5, "stats": stats,
           "phases": {p: 0.1 for p in metrics.PHASES}}
    sampled = workload == "sampled"
    tasks = [{"id": f"sampled/bzip/k{i}" if sampled else f"t{i}",
              "status": "ok", "attempts": 1, "dur_s": 0.1 + i / 100,
              "host_s": 0.09, "ffwd_s": 0.0} for i in range(30)]
    extra = {"slots": 4, "sampling_prewarm_s": 0.1, "ipc_ci95": 0.01,
             "sampled_wall_s_bzip": 1.0, "mono_commits": 4e6}
    legs = {"sampled_s": 1.0, "mono_s": 2.0} if sampled else {"cold_s": 1.0}
    rep = {"wall_s": 3.0, "legs": legs, "extra": extra, "tasks": tasks,
           "ipc_err_pct": 7.5, "attempted": 30, "failed": 0, "failures": []}
    return {
        "workload": workload, "setup_s": [0.01, 0.02, 0.03],
        "reps": [dict(rep, traced=False), dict(rep, traced=True)],
        "probe": {"step_instr": 100, "step_s": 1.0, "fast_instr": 100,
                  "fast_s": 0.5, "ckpt_n": 2, "ckpt_save_s": 0.01,
                  "ckpt_load_s": 0.01, "ckpt_bytes": 4096,
                  "spawn_ms": [1.0, 2.0, 3.0], "commit_width": 4,
                  "sims": {k: sim for k in ("base", "x2", "x4", "x2_cosim_off",
                                            "x2_profiled", "x2_cpi")}},
    }


class Computation(unittest.TestCase):
    def test_every_computed_metric_is_registered(self):
        spans = [span(1, 0, 0.0, 0.002, "workloads.build_workload")]
        for wl in ("fig11", "sampled", "ffwd_sweep", "serve_sweep"):
            run = fake_run(wl)
            self.assertEqual(set(metrics.per_layer(run, spans)),
                             set(metrics.PER_LAYER), wl)
            self.assertEqual(set(metrics.end_to_end(run, 20.0)),
                             set(metrics.END_TO_END), wl)
            self.assertEqual(len(metrics.issue_table(run, 20.0)), 12, wl)

    def test_end_to_end_uses_untraced_repetitions_only(self):
        run = fake_run("fig11")
        run["reps"][1]["wall_s"] = 100.0
        self.assertEqual(metrics.end_to_end(run, 1.0)["wall_s"], 3.0)
        layer = metrics.per_layer(run, [span(1, 0, 0, 1,
                                             "workloads.build_workload")])
        self.assertAlmostEqual(layer["trace.overhead_pct"],
                               (100.0 / 3.0 - 1) * 100)


if __name__ == "__main__":
    unittest.main()
