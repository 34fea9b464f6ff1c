#include "campaign/campaign.hpp"

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "campaign/ckpt_cache.hpp"
#include "campaign/progress.hpp"
#include "core/simulator.hpp"
#include "obs/interval.hpp"
#include "workloads/workloads.hpp"

namespace bsp::campaign {

TaskRecord record_from_outcome(const TaskSpec& task, const TaskOutcome& out) {
  TaskRecord rec;
  rec.task = task;
  rec.status = out.status;
  rec.error = out.error;
  rec.attempts = out.attempts;
  rec.duration_ms = out.duration_ms;
  rec.stats = out.stats;
  rec.interval = out.interval;
  rec.series = out.series;
  rec.max_rss_kb = out.max_rss_kb;
  rec.user_sec = out.user_sec;
  rec.sys_sec = out.sys_sec;
  rec.ckpt_cache = out.ckpt_cache;
  rec.ffwd_sec = out.ffwd_sec;
  rec.sample_intervals = out.sample_intervals;
  rec.sample_warmup = out.sample_warmup;
  rec.ipc_mean = out.ipc_mean;
  rec.ipc_ci95 = out.ipc_ci95;
  rec.samples = out.samples;
  return rec;
}

TaskOutcome outcome_from_record(const TaskRecord& rec) {
  TaskOutcome out;
  out.status = rec.status;
  out.error = rec.error;
  out.attempts = rec.attempts;
  out.duration_ms = rec.duration_ms;
  out.stats = rec.stats;
  out.interval = rec.interval;
  out.series = rec.series;
  out.max_rss_kb = rec.max_rss_kb;
  out.user_sec = rec.user_sec;
  out.sys_sec = rec.sys_sec;
  out.ckpt_cache = rec.ckpt_cache;
  out.ffwd_sec = rec.ffwd_sec;
  out.sample_intervals = rec.sample_intervals;
  out.sample_warmup = rec.sample_warmup;
  out.ipc_mean = rec.ipc_mean;
  out.ipc_ci95 = rec.ipc_ci95;
  out.samples = rec.samples;
  return out;
}

CampaignReport run_campaign(const SweepSpec& spec, const TaskRunner& runner,
                            const CampaignOptions& options) {
  const std::vector<TaskSpec> tasks = spec.expand();
  const std::string out_path =
      options.out_path.empty() ? spec.name + ".jsonl" : options.out_path;
  ResultStore store(out_path, options.fresh);

  // Partition the grid into already-satisfied tasks and work to do.
  std::vector<std::size_t> todo;  // indices into `tasks`
  CampaignReport report;
  report.total = tasks.size();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::string status = store.status(tasks[i].id());
    const bool satisfied =
        options.retry_failed ? status == "ok" : !status.empty();
    if (satisfied)
      ++report.skipped;
    else
      todo.push_back(i);
  }

  ProgressMeter meter(spec.name, tasks.size(), report.skipped,
                      options.progress);
  std::mutex report_mutex;
  std::vector<TaskSpec> pending;
  pending.reserve(todo.size());
  for (const std::size_t i : todo) pending.push_back(tasks[i]);

  // Checkpoint-cache pre-pass: pay each distinct fast-forward once, up
  // front, so the sweep's workers (thread or process) only ever restore.
  report.prewarm = prewarm_checkpoint_cache(pending, options.scheduler);

  run_tasks(pending, runner, options.scheduler,
            [&](std::size_t pi, const TaskOutcome& out) {
              // Thread-safe, atomic line append.
              store.append(record_from_outcome(pending[pi], out));
              meter.task_done(out);
              std::lock_guard<std::mutex> lock(report_mutex);
              ++report.ran;
              if (out.ckpt_cache == "hit") ++report.ckpt_hits;
              if (out.ckpt_cache == "miss") ++report.ckpt_misses;
              if (out.ok())
                ++report.ok;
              else if (out.status == "crashed")
                ++report.crashed;
              else
                ++report.failed;  // "failed" and "timeout" statuses
              if (out.retried()) ++report.retried;
            });
  meter.finish();

  for (const auto& task : tasks)
    if (const TaskRecord* rec = store.find(task.id()))
      report.records.push_back(*rec);
  return report;
}

TaskRunner make_sim_runner(const RunnerOptions& options) {
  // Shared (workload, seed) -> Workload cache. The first task to need a
  // program builds it; concurrent tasks for the same key block on the
  // shared_future instead of re-assembling. Everything lives behind a
  // shared_ptr so detached timed-out attempts stay memory-safe.
  struct Cache {
    std::mutex m;
    std::map<std::pair<std::string, u64>,
             std::shared_future<std::shared_ptr<const Workload>>>
        built;
    // (workload, seed, fast_forward) -> start checkpoint, same
    // build-once/share pattern: within one process each distinct
    // fast-forward is paid (or its cache file read) exactly once, no matter
    // how many concurrent tasks need it.
    std::map<std::tuple<std::string, u64, u64>, std::shared_future<CkptFetch>>
        ckpts;
  };
  auto cache = std::make_shared<Cache>();
  return [cache, options](const TaskSpec& task) -> AttemptResult {
    std::shared_future<std::shared_ptr<const Workload>> fut;
    bool builder = false;
    std::promise<std::shared_ptr<const Workload>> promise;
    {
      std::lock_guard<std::mutex> lock(cache->m);
      const auto key = std::make_pair(task.workload, task.seed);
      const auto it = cache->built.find(key);
      if (it == cache->built.end()) {
        fut = promise.get_future().share();
        cache->built.emplace(key, fut);
        builder = true;
      } else {
        fut = it->second;
      }
    }
    if (builder) {
      try {
        WorkloadParams params;
        params.seed = task.seed;
        promise.set_value(std::make_shared<const Workload>(
            build_workload(task.workload, params)));
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }
    std::shared_ptr<const Workload> workload;
    try {
      workload = fut.get();  // rethrows the builder's failure for everyone
    } catch (const std::exception& e) {
      AttemptResult r;
      r.error = std::string("workload build failed: ") + e.what();
      return r;
    }
    // Fast-forward tasks start from a shared checkpoint: in-process memo
    // first, then the on-disk cache, then (cold path) one fast-forward run
    // whose result every later task reuses.
    CkptFetch ckpt;
    if (task.fast_forward > 0) {
      std::shared_future<CkptFetch> cfut;
      bool ckpt_builder = false;
      std::promise<CkptFetch> cpromise;
      {
        std::lock_guard<std::mutex> lock(cache->m);
        const auto key =
            std::make_tuple(task.workload, task.seed, task.fast_forward);
        const auto it = cache->ckpts.find(key);
        if (it == cache->ckpts.end()) {
          cfut = cpromise.get_future().share();
          cache->ckpts.emplace(key, cfut);
          ckpt_builder = true;
        } else {
          cfut = it->second;
        }
      }
      if (ckpt_builder)
        cpromise.set_value(fetch_checkpoint(options.ckpt_cache_dir,
                                            task.workload, task.seed,
                                            workload->program,
                                            task.fast_forward));
      ckpt = cfut.get();
      if (!ckpt.ok()) {
        AttemptResult r;
        r.error = "fast-forward failed: " + ckpt.error;
        return r;
      }
      // Memo consumers after the first share the builder's fetch; only the
      // builder reports its miss (and pays its ffwd_sec) so per-task
      // records sum to the real host cost instead of multiply counting it.
      if (!ckpt_builder) {
        ckpt.hit = true;
        ckpt.ffwd_sec = 0;
      }
    }
    Simulator sim = task.fast_forward > 0
                        ? Simulator(task.machine.build(), workload->program,
                                    *ckpt.checkpoint)
                        : Simulator(task.machine.build(), workload->program);
    obs::IntervalSampler sampler(options.interval ? options.interval : 1);
    if (options.interval) sim.set_interval_sampler(&sampler);
    if (options.host_profile) sim.enable_host_profile();
    if (options.cpi_stack) sim.enable_cpi_stack();
    const std::string& cosim_text =
        !task.cosim.empty() ? task.cosim : options.cosim;
    if (!cosim_text.empty()) {
      SimOptions so;
      if (!parse_cosim(cosim_text, &so)) {
        AttemptResult r;
        r.error = "bad cosim mode: " + cosim_text;
        return r;
      }
      sim.set_options(so);
    }
    // Functional warming first, then only the last detailed_warmup
    // warm-up commits through the timing core (SweepSpec::detailed_warmup).
    const u64 functional = task.functional_warmup();
    if (functional > 0) sim.warm(functional);
    const SimResult res =
        sim.run(task.instructions, task.warmup - functional);
    AttemptResult r;
    r.stats = res.stats;
    r.error = res.error;
    if (task.fast_forward > 0) {
      r.ckpt_cache = ckpt.hit ? "hit" : "miss";
      r.ffwd_sec = ckpt.ffwd_sec;
      if (options.host_profile) r.stats.host_profile.ffwd = ckpt.ffwd_sec;
    }
    if (options.interval) {
      r.interval = options.interval;
      r.series.reserve(sampler.rows().size());
      for (const obs::IntervalRow& row : sampler.rows()) {
        std::vector<u64> flat;
        flat.reserve(2 + row.delta.size());
        flat.push_back(row.cycle);
        flat.push_back(row.committed);
        flat.insert(flat.end(), row.delta.begin(), row.delta.end());
        r.series.push_back(std::move(flat));
      }
    }
    return r;
  };
}

bool CampaignReport::all_ok() const {
  return records.size() == total &&
         std::all_of(records.begin(), records.end(),
                     [](const TaskRecord& r) { return r.status == "ok"; });
}

GridRecords::GridRecords(const SweepSpec& spec, const CampaignReport& report)
    : spec_(spec) {
  for (const auto& rec : report.records) by_id_[rec.task.id()] = &rec;
}

const TaskRecord* GridRecords::find(const std::string& workload, u64 seed,
                                    const MachinePoint& machine) const {
  const auto it = by_id_.find(spec_.task(workload, seed, machine).id());
  return it == by_id_.end() ? nullptr : it->second;
}

const SimStats& GridRecords::stats(const std::string& workload, u64 seed,
                                   const MachinePoint& machine) const {
  const TaskRecord* rec = find(workload, seed, machine);
  if (!rec)
    throw std::out_of_range("no record for " +
                            spec_.task(workload, seed, machine).id());
  return rec->stats;
}

Table summary_table(const SweepSpec& spec, const CampaignReport& report) {
  std::vector<std::string> header = {"workload"};
  if (spec.seeds.size() > 1) header.push_back("seed");
  for (const auto& m : spec.machines) header.push_back(m.label);
  Table table(std::move(header));

  const GridRecords grid(spec, report);
  std::vector<double> col_sum(spec.machines.size(), 0.0);
  std::vector<unsigned> col_n(spec.machines.size(), 0);
  for (const auto& workload : spec.workloads) {
    for (const u64 seed : spec.seeds) {
      std::vector<std::string> row = {workload};
      if (spec.seeds.size() > 1) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%llx",
                      static_cast<unsigned long long>(seed));
        row.push_back(buf);
      }
      for (std::size_t mi = 0; mi < spec.machines.size(); ++mi) {
        const TaskRecord* rec = grid.find(workload, seed, spec.machines[mi]);
        if (!rec) {
          row.push_back("-");
        } else if (rec->status != "ok") {
          row.push_back(rec->status);
        } else {
          const double ipc = rec->stats.ipc();
          row.push_back(Table::num(ipc, 3));
          col_sum[mi] += ipc;
          ++col_n[mi];
        }
      }
      table.add_row(std::move(row));
    }
  }
  std::vector<std::string> mean_row = {"mean"};
  if (spec.seeds.size() > 1) mean_row.push_back("");
  for (std::size_t mi = 0; mi < spec.machines.size(); ++mi)
    mean_row.push_back(col_n[mi] ? Table::num(col_sum[mi] / col_n[mi], 3)
                                 : "-");
  table.add_row(std::move(mean_row));
  return table;
}

}  // namespace bsp::campaign
