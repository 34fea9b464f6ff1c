// The campaign engine's top layer: expand a SweepSpec, skip tasks the JSONL
// store already holds (checkpoint/resume), run the remainder through the
// fault-tolerant scheduler with live progress, and summarise.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "util/table.hpp"

namespace bsp::campaign {

struct CampaignOptions {
  SchedulerOptions scheduler;
  std::string out_path;       // JSONL store path ("" = <name>.jsonl in cwd)
  bool fresh = false;         // discard existing records instead of resuming
  bool retry_failed = false;  // re-run tasks whose record is failed/timeout
  bool progress = true;       // live stderr progress line
};

struct CampaignReport {
  std::size_t total = 0;    // expanded grid size
  std::size_t skipped = 0;  // satisfied by existing records (resume)
  std::size_t ran = 0;      // executed this run
  std::size_t ok = 0;       // ... of which succeeded
  std::size_t failed = 0;   // ... of which failed or timed out
  std::size_t crashed = 0;  // ... of which died on a signal (process mode)
  std::size_t retried = 0;  // ... of which needed >1 attempt
  // Checkpoint-cache pre-pass stats (all zero when no --ckpt-cache dir or
  // no fast_forward in the spec).
  PrewarmStats prewarm;
  // Per-task cache traffic: executed tasks whose start checkpoint came from
  // the cache ("hit") vs. paid-here fast-forwards ("miss").
  std::size_t ckpt_hits = 0;
  std::size_t ckpt_misses = 0;
  // Final state of every task in the grid (resumed + fresh), in grid order.
  std::vector<TaskRecord> records;

  // Every grid task has a record and every record is "ok".
  bool all_ok() const;
};

// Runs `spec` with `runner`, appending one record per executed task to the
// store at options.out_path. Rerunning with the same path resumes: tasks
// whose records already exist are skipped (any status; with retry_failed,
// only "ok" records are skipped and failed tasks get a fresh record).
CampaignReport run_campaign(const SweepSpec& spec, const TaskRunner& runner,
                            const CampaignOptions& options);

// Scheduler outcome <-> store record, one field mapping in one place. Used
// by run_campaign, the remote worker (outcome -> RECORD frame) and the
// remote coordinator (RECORD frame -> progress meter feed).
TaskRecord record_from_outcome(const TaskSpec& task, const TaskOutcome& out);
TaskOutcome outcome_from_record(const TaskRecord& rec);

// Per-task observability knobs for the production runner.
struct RunnerOptions {
  // Sample deltas of every SimStats counter each `interval` committed
  // instructions (obs/interval.hpp); the series lands in the task's record
  // ("interval" + "series" fields). 0 = off.
  u64 interval = 0;
  // Collect host-phase profiles (SimStats::host_profile, serialised as the
  // record's "host_phases" object) and feed the progress meter's breakdown.
  bool host_profile = false;
  // Shared checkpoint cache directory for fast_forward > 0 tasks ("" = no
  // on-disk cache; concurrent in-process tasks still share one fast-forward
  // through the runner's memo). Point workers at the same directory the
  // scheduler prewarmed.
  std::string ckpt_cache_dir;
  // CPI-stack cycle accounting per task (Simulator::enable_cpi_stack):
  // the SimStats cpi_* leaves land in every record, ready for
  // `bsp-report --cpi-stack` aggregation.
  bool cpi_stack = false;
  // Run-wide co-simulation cadence default ("full", "off", "spot[:N]");
  // a task's own TaskSpec::cosim overrides it. "" = full.
  std::string cosim;
};

// The production runner: builds each (workload, seed) program once —
// concurrent tasks share it through an internal cache — then runs the
// task's machine configuration. Co-simulation divergence and workload-build
// failures come back as AttemptResult errors, never as exceptions or
// aborts.
TaskRunner make_sim_runner(const RunnerOptions& options = {});

// Grid-cell lookup over a campaign's final records, keyed by task id so
// that every axis the ids carry (functional warm-up, fast-forward, cosim)
// is honoured. Holds references: `spec` and `report` must outlive it.
class GridRecords {
 public:
  GridRecords(const SweepSpec& spec, const CampaignReport& report);

  // The cell's record; nullptr when the store holds none.
  const TaskRecord* find(const std::string& workload, u64 seed,
                         const MachinePoint& machine) const;
  // The cell's stats; throws std::out_of_range when it has no record.
  const SimStats& stats(const std::string& workload, u64 seed,
                        const MachinePoint& machine) const;

 private:
  const SweepSpec& spec_;
  std::map<std::string, const TaskRecord*> by_id_;
};

// Per-campaign summary: one row per (workload, seed), one IPC column per
// machine point (spec order), with failed tasks shown as their status. A
// final "mean" row averages each column over its successful rows.
Table summary_table(const SweepSpec& spec, const CampaignReport& report);

}  // namespace bsp::campaign
