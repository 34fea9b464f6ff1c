// bsp-perfbench: the measuring half of the repository benchmark.
//
// run.py builds this binary and runs it once per benchmark run. It sets a
// workload up several times, runs the workload's timed repetitions, checks
// the simulated results, and writes everything it measured as one raw JSON
// document; run.py turns that into metrics. With --trace 1 it also records
// spans around every call it makes into a layer's public functions and
// runs a fixed probe of each layer on the workload's own programs.
//
//   bsp-perfbench --workload fig11|sampled|ffwd_sweep|serve_sweep|all
//                 --seed N --seconds S --trace 0|1 --tools DIR --work DIR
//                 --out raw.json [--fig11-seed N] [--allow-non-release]
//
// Every workload is a closed loop: a fixed number of slots (<= nproc) each
// take the next task when the previous one finishes.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "asm/objfile.hpp"
#include "campaign/builtin.hpp"
#include "campaign/campaign.hpp"
#include "campaign/remote.hpp"
#include "config/machine_config.hpp"
#include "core/simulator.hpp"
#include "emu/checkpoint.hpp"
#include "emu/emulator.hpp"
#include "obs/cpi_stack.hpp"
#include "obs/interval.hpp"
#include "sampling/sampled.hpp"
#include "util/subprocess.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace bsp;
using namespace bsp::campaign;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- JSON out

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// A JSON object assembled field by field.
class JObj {
 public:
  JObj& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + jstr(key) + ":" + json;
    return *this;
  }
  JObj& num(const std::string& key, double v) { return raw(key, jnum(v)); }
  JObj& str(const std::string& key, const std::string& v) {
    return raw(key, jstr(v));
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// A JSON array of already-encoded values.
std::string jarr(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? "," : "") + items[i];
  return out + "]";
}

std::string jstrs(const std::vector<std::string>& strings) {
  std::vector<std::string> items;
  for (const std::string& s : strings) items.push_back(jstr(s));
  return jarr(items);
}

// ------------------------------------------------------------------- spans

// Spans around the benchmark's calls into the layers. Kept in memory and
// written out with the raw results. Disabled (every call a no-op) outside
// traced repetitions.
class Tracer {
 public:
  struct Span {
    u64 id = 0, parent = 0;
    std::string name, request;
    double t0 = 0, t1 = 0;  // seconds since the tracer's origin
  };

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_ = on; }

  u64 open(const std::string& name, u64 parent, const std::string& request) {
    const double t = now();
    std::lock_guard<std::mutex> lk(m_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = name;
    s.request = request;
    s.t0 = t;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void close(u64 id) {
    const double t = now();
    std::lock_guard<std::mutex> lk(m_);
    spans_[id - 1].t1 = t;
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(m_);
    return spans_;
  }

 private:
  double now() const { return since(origin_); }

  const Clock::time_point origin_ = Clock::now();
  std::atomic<bool> enabled_{false};
  mutable std::mutex m_;
  std::vector<Span> spans_;  // guarded by m_; id = index + 1
};

Tracer g_tracer;
thread_local std::vector<u64> t_open_spans;  // this thread's open spans

// RAII span. The parent defaults to the innermost span open on this
// thread; work handed to another thread passes its parent explicitly.
class Scope {
 public:
  explicit Scope(const std::string& name, const std::string& request = "",
                 u64 parent = 0) {
    if (!g_tracer.enabled()) return;
    if (parent == 0 && !t_open_spans.empty()) parent = t_open_spans.back();
    id_ = g_tracer.open(name, parent, request);
    t_open_spans.push_back(id_);
  }
  ~Scope() {
    if (id_ == 0) return;
    g_tracer.close(id_);
    t_open_spans.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  u64 id() const { return id_; }

 private:
  u64 id_ = 0;
};

// The runner handed to the campaign layer, wrapped so each task call gets
// a span (thread mode and remote workers run tasks in this process).
TaskRunner traced_runner(TaskRunner base, u64 parent) {
  if (!g_tracer.enabled()) return base;
  return [base = std::move(base), parent](const TaskSpec& t) {
    Scope s("campaign.task", t.id(), parent);
    return base(t);
  };
}

// ------------------------------------------------------------ measurements

// Per-attempt wall-clock limit for every campaign task and sampled
// interval. Tasks here take at most a few seconds; one that exceeds this is
// wedged, and is recorded as a timeout (a failed task) instead of hanging
// the run.
constexpr double kTaskTimeoutSec = 20;

struct TaskSample {
  std::string id, status;
  unsigned attempts = 1;
  double dur_s = 0;   // wall clock of the task (record duration_ms)
  double host_s = 0;  // in-simulator host seconds (SimStats::host_seconds)
  double ffwd_s = 0;  // fast-forward paid by this task

  std::string json() const {
    return JObj()
        .str("id", id)
        .str("status", status)
        .num("attempts", attempts)
        .num("dur_s", dur_s)
        .num("host_s", host_s)
        .num("ffwd_s", ffwd_s)
        .done();
  }
};

struct Rep {
  bool traced = false;
  double wall_s = 0;
  std::map<std::string, double> legs;  // named parts of the timed work
  std::vector<TaskSample> tasks;       // campaign tasks or sampled intervals
  std::map<std::string, double> extra; // workload-specific raw figures
  // Simulated counters by task id, while the repetition runs; folded into
  // `digest` afterwards so a run's memory does not grow with repetitions.
  std::map<std::string, std::vector<u64>> stats;
  std::string digest;
  double ipc_err_pct = 0;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;  // "id: status error" per failed item
};

std::vector<u64> counters_of(const SimStats& s) {
  std::vector<u64> v;
  for (const auto& c : obs::simstats_counters()) v.push_back(s.*c.field);
  return v;
}

// FNV-1a over every task id and its simulated counters, in id order.
std::string digest_of(const std::map<std::string, std::vector<u64>>& stats) {
  u64 h = 1469598103934665603ull;
  const auto mix = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  for (const auto& [id, v] : stats) {
    mix(id.data(), id.size() + 1);
    mix(v.data(), v.size() * sizeof(u64));
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// Correctness gate: every check is reported, any failure fails the run.
struct Checks {
  std::vector<std::string> items;
  bool ok = true;
  void add(const std::string& name, bool pass, const std::string& detail = "") {
    ok = ok && pass;
    items.push_back(JObj()
                        .str("name", name)
                        .raw("ok", pass ? "true" : "false")
                        .str("detail", detail)
                        .done());
  }
};

struct Env {
  u64 seed = 0x5eed;
  u64 fig11_seed = 0x5eed;  // fig11's programs do not follow --seed
  unsigned slots = 4;
  std::string tools;  // directory holding bsp-sim and bsp-sweep
  std::string work;   // scratch directory of this run
  std::string tool(const std::string& name) const { return tools + "/" + name; }
};

// Adds a campaign report's records to `rep` (durations + simulated stats).
void add_records(Rep& rep, const CampaignReport& report,
                 const std::string& prefix = "") {
  for (const TaskRecord& r : report.records) {
    TaskSample t;
    t.id = prefix + r.task.id();
    t.status = r.status;
    t.attempts = r.attempts;
    t.dur_s = r.duration_ms / 1e3;
    t.host_s = r.stats.host_seconds;
    t.ffwd_s = r.ffwd_sec;
    rep.tasks.push_back(t);
    ++rep.attempted;
    if (r.status != "ok") {
      ++rep.failed;
      rep.failures.push_back(t.id + ": " + r.status + " " + r.error);
    }
    rep.stats[t.id] = counters_of(r.stats);
  }
}

// Gap between the suite-mean IPC of the ideal base machine and of the
// x2 full technique stack, in percent of the base: the paper reports
// -0.01%.
double ipc_gap_x2_pct(const CampaignReport& report) {
  const TechniqueSet full = technique_stack(2).back().config.core.techniques;
  double base = 0, x2 = 0;
  for (const TaskRecord& r : report.records) {
    const MachinePoint& m = r.task.machine;
    if (m.kind == MachineKind::Base) base += r.stats.ipc();
    if (m.kind == MachineKind::Sliced && m.slices == 2 &&
        m.techniques == full)
      x2 += r.stats.ipc();
  }
  return base > 0 ? (base - x2) / base * 100.0 : 0;
}

template <typename Pred>
bool every(const std::vector<Rep>& reps, Pred pred) {
  return std::all_of(reps.begin(), reps.end(), pred);
}

bool all_ok(const CampaignReport& r) {
  return r.ok == r.total && r.failed == 0 && r.crashed == 0;
}

// --------------------------------------------------------------- workloads

class Bench {
 public:
  virtual ~Bench() = default;
  virtual std::string name() const = 0;
  // Nominal seconds per repetition on a 4-core host: sets how many
  // repetitions a run of --seconds makes (a fixed count for a given
  // --seconds, so both sides of a comparison do the same work).
  virtual double nominal_rep_s() const = 0;
  virtual std::vector<std::string> program_names() const = 0;
  // The seed the workload's programs are built with.
  virtual u64 program_seed(const Env& env) const { return env.seed; }

  // Set-up: program assembly plus the workload's own preparation.
  // Idempotent, so it can be timed several times.
  void setup(const Env& env) {
    programs_.clear();
    WorkloadParams params;
    params.seed = program_seed(env);
    for (const std::string& w : program_names()) {
      Scope s("workloads.build_workload", w);
      programs_[w] = build_workload(w, params).program;
    }
    prepare(env);
  }
  virtual Rep rep(const Env& env, bool traced) = 0;
  // Checks that need more than one repetition's data.
  virtual void verify(const Env&, const std::vector<Rep>&, Checks&) {}
  const Program& program(const std::string& w) const {
    return programs_.at(w);
  }

 protected:
  virtual void prepare(const Env&) {}
  std::map<std::string, Program> programs_;
};

// The built-in fig11 campaign at its default budgets (11 workloads x 13
// machines, 300k warm-up + 200k measured), thread mode. Its programs are
// built with --fig11-seed (default 0x5eed, the campaign's own), not with
// --seed: on some seeds (2, 0x33) the x4 full-stack machine livelocks on
// gcc, and a run that fails measures nothing.
class Fig11 : public Bench {
 public:
  std::string name() const override { return "fig11"; }
  double nominal_rep_s() const override { return 20; }
  std::vector<std::string> program_names() const override {
    return workload_names();
  }
  u64 program_seed(const Env& env) const override { return env.fig11_seed; }
  static SweepSpec spec(const Env& env) {
    SweepSpec spec = find_campaign("fig11")->make();
    spec.seeds = {env.fig11_seed};
    return spec;
  }
  Rep rep(const Env& env, bool traced) override {
    Rep rep;
    rep.traced = traced;
    CampaignOptions opts;
    opts.scheduler.jobs = env.slots;
    opts.scheduler.timeout_sec = kTaskTimeoutSec;
    opts.out_path = env.work + "/fig11.jsonl";
    opts.fresh = true;
    opts.progress = false;
    const auto t0 = Clock::now();
    CampaignReport report;
    {
      Scope s("campaign.run_campaign", "fig11");
      report = run_campaign(spec(env), traced_runner(make_sim_runner(), s.id()),
                            opts);
    }
    rep.wall_s = since(t0);
    rep.extra["slots"] = env.slots;
    add_records(rep, report);
    rep.ipc_err_pct = ipc_gap_x2_pct(report);
    return rep;
  }
  void verify(const Env& env, const std::vector<Rep>& reps,
              Checks& checks) override {
    const std::size_t total = spec(env).expand().size();
    checks.add("fig11: every task ok", every(reps, [&](const Rep& r) {
                 return r.failed == 0 && r.tasks.size() == total;
               }));
  }
};

// Long bzip, mcf and li runs, each monolithic and then K=8 sampled with
// process-isolated intervals over a fresh checkpoint cache. bzip and mcf
// are the cases whose sampled IPC is biased; li is the unbiased control,
// and a third program puts the median interval inside a cluster.
class Sampled : public Bench {
 public:
  static constexpr u64 kCommits = 4'000'000, kWarmup = 200'000;
  static constexpr unsigned kIntervals = 8;
  static constexpr u64 kIntervalWarmup = 100'000;

  std::string name() const override { return "sampled"; }
  double nominal_rep_s() const override { return 13; }
  std::vector<std::string> program_names() const override {
    return {"bzip", "mcf", "li"};
  }
  // bsp-sim's default machine: slice-by-2 with every technique.
  static MachineConfig machine() { return bitsliced_machine(2, kAllTechniques); }

  Rep rep(const Env& env, bool traced) override {
    Rep rep;
    rep.traced = traced;
    const auto t0 = Clock::now();
    double err_sum = 0;
    for (const std::string& w : program_names()) {
      // Monolithic leg: single-thread long-run simulator speed.
      const auto tm = Clock::now();
      SimResult mono;
      {
        Scope s("core.Simulator::run", "sampled/" + w + "/mono");
        Simulator sim(machine(), program(w));
        mono = sim.run(kCommits, kWarmup);
      }
      const double mono_s = since(tm);
      rep.legs["mono_s"] += mono_s;
      rep.extra["mono_commits"] += static_cast<double>(mono.stats.committed +
                                                       kWarmup);
      ++rep.attempted;
      if (!mono.ok() || mono.exited) {
        ++rep.failed;
        rep.failures.push_back("sampled/" + w + "/mono: " + mono.error);
      }
      rep.stats["sampled/" + w + "/mono"] = counters_of(mono.stats);

      // Sampled leg: prewarm, interval fan-out, stitch.
      const std::string cache = env.work + "/sample-ckpt-" + w;
      fs::remove_all(cache);
      sampling::SampleOptions opts;
      opts.intervals = kIntervals;
      opts.warmup = kIntervalWarmup;
      opts.jobs = env.slots;
      opts.ckpt_cache_dir = cache;
      opts.timeout_sec = kTaskTimeoutSec;
      const std::string obj = bspo_path(env, w);
      opts.worker_cmd = {env.tool("bsp-sim"), obj,
                         "-n", std::to_string(kCommits),
                         "--warmup", std::to_string(kWarmup),
                         "--sample-intervals", std::to_string(kIntervals),
                         "--sample-warmup", std::to_string(kIntervalWarmup),
                         "--ckpt-cache", cache,
                         "--sample-worker"};
      const auto ts = Clock::now();
      sampling::SampledResult res;
      {
        Scope s("sampling.run_sampled", "sampled/" + w);
        // bsp-sim keys the interval checkpoints by its input path and the
        // default seed; the content hash carries the program itself.
        res = sampling::run_sampled(machine(), program(w), obj, 0x5eed,
                                    kCommits, kWarmup, 0, opts);
      }
      const double sampled_s = since(ts);
      rep.legs["sampled_s"] += sampled_s;
      rep.extra["sampling_prewarm_s"] += res.prewarm_sec;
      rep.extra["ipc_ci95"] += res.ipc.ci95 / program_names().size();
      u64 measured = 0;
      for (const sampling::IntervalResult& r : res.intervals) {
        TaskSample t;
        t.id = "sampled/" + w + "/k" + std::to_string(r.spec.index);
        t.status = r.measured() ? "ok" : (r.skipped ? "skipped" : "failed");
        t.dur_s = r.host_sec;
        t.host_s = r.stats.host_seconds;
        rep.tasks.push_back(t);
        ++rep.attempted;
        if (!r.measured()) {
          ++rep.failed;
          rep.failures.push_back(t.id + ": " + t.status + " " + r.error);
        }
        rep.stats[t.id] = counters_of(r.stats);
        measured += r.stats.committed;
      }
      ++rep.attempted;  // the sampled leg as a whole: prewarm + stitch
      if (!res.ok()) {
        ++rep.failed;
        rep.failures.push_back("sampled/" + w + ": " + res.error);
      }
      rep.extra["interval_commits_match"] +=
          measured == mono.stats.committed ? 0 : 1;
      const double mono_ipc = mono.stats.ipc();
      err_sum += mono_ipc > 0 ? std::abs(res.ipc.mean - mono_ipc) / mono_ipc
                              : 0;
      rep.extra["sampled_wall_s_" + w] = sampled_s;
    }
    rep.wall_s = since(t0);
    rep.extra["slots"] = env.slots;
    rep.ipc_err_pct = err_sum / program_names().size() * 100.0;
    return rep;
  }
  void verify(const Env&, const std::vector<Rep>& reps,
              Checks& checks) override {
    checks.add("sampled: mono legs and every interval ok",
               every(reps, [](const Rep& r) { return r.failed == 0; }));
    checks.add("sampled: intervals cover exactly the monolithic commits",
               every(reps, [](const Rep& r) {
                 return r.extra.at("interval_commits_match") == 0;
               }));
  }

 protected:
  static std::string bspo_path(const Env& env, const std::string& w) {
    return env.work + "/" + w + ".bspo";
  }
  void prepare(const Env& env) override {
    for (const std::string& w : program_names())
      if (!save_object_file(program(w), bspo_path(env, w)))
        throw std::runtime_error("cannot write " + bspo_path(env, w));
  }
};

// The thin-task grid shared by ffwd_sweep and serve_sweep: fig11's 13
// machines on five workloads, a long fast-forward, tiny detail windows.
// Task times cluster by workload; an odd workload count puts the median
// task inside the middle cluster instead of in the gap between two.
std::vector<std::string> thin_programs() {
  return {"bzip", "gcc", "gzip", "li", "mcf"};
}

SweepSpec thin_grid(const Env& env) {
  SweepSpec spec;
  spec.name = "ffwd_sweep";
  spec.machines = find_campaign("fig11")->make().machines;
  spec.workloads = thin_programs();
  spec.seeds = {env.seed};
  spec.instructions = 2'000;
  spec.warmup = 2'000;
  spec.fast_forward = 50'000'000;
  return spec;
}

// One process-isolated pass of the thin grid (bsp-sweep --worker-json).
CampaignReport process_pass(const Env& env, const std::string& cache,
                            const std::string& store) {
  CampaignOptions opts;
  opts.scheduler.jobs = env.slots;
  opts.scheduler.isolate = IsolationMode::kProcess;
  opts.scheduler.timeout_sec = kTaskTimeoutSec;
  opts.scheduler.worker_cmd = {env.tool("bsp-sweep"), "--ckpt-cache", cache,
                               "--worker-json"};
  opts.scheduler.worker_task_json = true;
  opts.scheduler.ckpt_cache_dir = cache;
  opts.out_path = store;
  opts.fresh = true;
  opts.progress = false;
  return run_campaign(thin_grid(env), make_sim_runner(), opts);
}

// Fast-forward dominated grid, process isolation, run cold (cache written)
// and then warm (cache read) against one checkpoint cache.
class FfwdSweep : public Bench {
 public:
  std::string name() const override { return "ffwd_sweep"; }
  double nominal_rep_s() const override { return 1.3; }
  std::vector<std::string> program_names() const override {
    return thin_programs();
  }
  Rep rep(const Env& env, bool traced) override {
    Rep rep;
    rep.traced = traced;
    const std::string cache = env.work + "/ffwd-ckpt";
    fs::remove_all(cache);
    const auto t0 = Clock::now();
    CampaignReport cold, warm;
    {
      Scope s("campaign.run_campaign", "ffwd_sweep/cold");
      cold = process_pass(env, cache, env.work + "/ffwd-cold.jsonl");
    }
    rep.legs["cold_s"] = since(t0);
    const auto tw = Clock::now();
    {
      Scope s("campaign.run_campaign", "ffwd_sweep/warm");
      warm = process_pass(env, cache, env.work + "/ffwd-warm.jsonl");
    }
    rep.legs["warm_s"] = since(tw);
    rep.wall_s = since(t0);
    rep.extra["slots"] = env.slots;
    rep.extra["prewarm_s"] = cold.prewarm.ffwd_sec + warm.prewarm.ffwd_sec;
    rep.extra["ckpt_hits"] = cold.ckpt_hits + warm.ckpt_hits;
    rep.extra["ckpt_misses"] = cold.ckpt_misses + warm.ckpt_misses;
    rep.extra["retried"] = cold.retried + warm.retried;
    add_records(rep, cold, "cold:");
    add_records(rep, warm, "warm:");
    rep.ipc_err_pct = ipc_gap_x2_pct(warm);

    // Correctness within the repetition: the cold pass materialised every
    // group, the warm pass restored every one, and each task's simulated
    // stats are identical across the two paths.
    const std::size_t groups = program_names().size();
    rep.extra["cold_materialised_ok"] =
        all_ok(cold) && cold.prewarm.materialised == groups;
    rep.extra["warm_reused_ok"] = all_ok(warm) &&
                                  warm.prewarm.materialised == 0 &&
                                  warm.prewarm.reused == groups &&
                                  warm.ckpt_hits == warm.total;
    bool same = cold.records.size() == warm.records.size();
    for (std::size_t i = 0; same && i < cold.records.size(); ++i)
      same = cold.records[i].task.id() == warm.records[i].task.id() &&
             counters_of(cold.records[i].stats) ==
                 counters_of(warm.records[i].stats);
    rep.extra["cold_warm_identical"] = same;
    return rep;
  }
  void verify(const Env&, const std::vector<Rep>& reps,
              Checks& checks) override {
    const auto flag = [&](const char* key) {
      return every(reps, [&](const Rep& r) { return r.extra.at(key) != 0; });
    };
    checks.add("ffwd_sweep: cold pass ok, every group materialised",
               flag("cold_materialised_ok"));
    checks.add("ffwd_sweep: warm pass ok, every task restored from cache",
               flag("warm_reused_ok"));
    checks.add("ffwd_sweep: SimStats identical cold vs warm",
               flag("cold_warm_identical"));
  }
};

// The thin grid on a warm cache, coordinated by serve_campaign over
// loopback to two in-process remote workers (thread isolation).
class ServeSweep : public Bench {
 public:
  std::string name() const override { return "serve_sweep"; }
  double nominal_rep_s() const override { return 0.25; }
  std::vector<std::string> program_names() const override {
    return thin_programs();
  }
  Rep rep(const Env& env, bool traced) override {
    Rep rep;
    rep.traced = traced;
    const std::string ports = env.work + "/serve.ports";
    fs::remove(ports);
    CampaignOptions copts;
    copts.out_path = env.work + "/serve.jsonl";
    copts.fresh = true;
    copts.progress = false;
    RemoteOptions ropts;
    ropts.bind = {"127.0.0.1", 0};
    ropts.port_file = ports;
    ropts.spec.campaign = thin_grid(env).name;
    ropts.spec.timeout_sec = kTaskTimeoutSec;
    const unsigned workers = 2;
    const unsigned slots = std::max(1u, env.slots / workers);

    const auto t0 = Clock::now();
    CampaignReport report;
    std::vector<WorkerReport> wreports(workers);
    std::uint16_t port = 0;
    {
      Scope top("campaign.serve_campaign", "serve_sweep");
      const u64 top_id = top.id();
      auto serve = std::async(std::launch::async, [&] {
        return serve_campaign(thin_grid(env), copts, ropts);
      });
      port = wait_port(ports);
      std::vector<std::future<WorkerReport>> fw;
      for (unsigned i = 0; i < workers; ++i)
        fw.push_back(std::async(std::launch::async, [&, i] {
          Scope ws("campaign.run_remote_worker", "w" + std::to_string(i),
                   top_id);
          const u64 wid = ws.id();
          WorkerOptions wo;
          wo.connect = {"127.0.0.1", port};
          wo.slots = slots;
          wo.hostname = "bench-w" + std::to_string(i);
          const WorkerSetup setup = [&, wid](const RemoteSpec&,
                                             TaskRunner* runner,
                                             SchedulerOptions* sched) {
            RunnerOptions ro;
            ro.ckpt_cache_dir = cache(env);
            *runner = traced_runner(make_sim_runner(ro), wid);
            sched->ckpt_cache_dir = cache(env);
          };
          return run_remote_worker(wo, setup);
        }));
      report = serve.get();
      for (unsigned i = 0; i < workers; ++i) wreports[i] = fw[i].get();
    }
    rep.wall_s = since(t0);
    rep.extra["slots"] = workers * slots;
    rep.extra["ckpt_hits"] = report.ckpt_hits;
    rep.extra["ckpt_misses"] = report.ckpt_misses;
    rep.extra["retried"] = report.retried;
    add_records(rep, report);
    rep.ipc_err_pct = ipc_gap_x2_pct(report);
    bool done = port != 0;
    for (const WorkerReport& w : wreports) done = done && w.done;
    rep.extra["workers_done"] = done && all_ok(report);
    return rep;
  }
  // Reference: the same grid as ffwd_sweep's warm pass (process isolation,
  // --worker-json), once per run. Its stats must match serve's byte for
  // byte, task by task.
  void verify(const Env& env, const std::vector<Rep>& reps,
              Checks& checks) override {
    const CampaignReport ref =
        process_pass(env, cache(env), env.work + "/serve-ref.jsonl");
    std::map<std::string, std::vector<u64>> want;
    for (const TaskRecord& r : ref.records)
      want[r.task.id()] = counters_of(r.stats);
    const std::string digest = digest_of(want);
    checks.add("serve_sweep: process-mode reference ok", all_ok(ref));
    checks.add("serve_sweep: every task ok, workers shut down cleanly",
               every(reps, [](const Rep& r) {
                 return r.extra.at("workers_done") != 0;
               }));
    checks.add("serve_sweep: SimStats identical to ffwd_sweep's warm pass",
               every(reps, [&](const Rep& r) { return r.digest == digest; }));
  }

 protected:
  static std::string cache(const Env& env) { return env.work + "/serve-ckpt"; }
  // The warm cache the sweep reads: materialised once, reused afterwards.
  void prepare(const Env& env) override {
    SchedulerOptions sched;
    sched.jobs = env.slots;
    sched.ckpt_cache_dir = cache(env);
    const PrewarmStats p =
        prewarm_checkpoint_cache(thin_grid(env).expand(), sched);
    if (p.failed != 0) throw std::runtime_error("serve_sweep: prewarm failed");
  }
  static std::uint16_t wait_port(const std::string& path) {
    const auto t0 = Clock::now();
    while (since(t0) < 10) {
      std::ifstream in(path);
      std::string line;
      while (std::getline(in, line))
        if (line.rfind("port=", 0) == 0)
          return static_cast<std::uint16_t>(std::stoul(line.substr(5)));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return 0;
  }
};

// ------------------------------------------------------------ layer probe

// Times each layer from outside on the workload's own programs, at fixed
// sizes: run in traced runs only, after the repetitions.
std::string probe(const Env& env, const Bench& wl, Checks& checks) {
  constexpr u64 kStep = 500'000, kFast = 10'000'000, kCommits = 100'000;
  double step_s = 0, fast_s = 0, save_s = 0, load_s = 0;
  u64 step_n = 0, fast_n = 0, ckpt_bytes = 0, ckpt_n = 0;
  struct SimProbe {
    double seconds = 0;
    SimStats stats;
  };
  std::map<std::string, SimProbe> sims;
  const auto run_sim = [&](const std::string& key, const MachineConfig& cfg,
                           const Program& prog, const std::string& w,
                           const std::function<void(Simulator&)>& tweak) {
    Simulator sim(cfg, prog);
    if (tweak) tweak(sim);
    const auto t0 = Clock::now();
    SimResult r;
    {
      Scope s("core.Simulator::run", key + "/" + w);
      r = sim.run(kCommits);
    }
    SimProbe& p = sims[key];
    p.seconds += since(t0);
    p.stats.merge(r.stats);
    if (!r.ok()) checks.add("probe: " + key + " on " + w + " ok", false, r.error);
    return r;
  };
  const MachineConfig x2 = bitsliced_machine(2, kAllTechniques);
  for (const std::string& w : wl.program_names()) {
    const Program& prog = wl.program(w);
    {
      Emulator emu(prog);
      ExecRecord rec;
      const auto t0 = Clock::now();
      Scope s("emu.step", w);
      u64 n = 0;
      while (n < kStep && emu.step(&rec).ok()) ++n;
      step_s += since(t0);
      step_n += n;
    }
    Emulator emu(prog);
    {
      const auto t0 = Clock::now();
      Scope s("emu.run_fast", w);
      fast_n += emu.run_fast(kFast);
      fast_s += since(t0);
    }
    const Checkpoint ckpt = capture_checkpoint(emu);
    const std::string path = env.work + "/probe-" + w + ".bspc";
    bool saved = false;
    {
      const auto t0 = Clock::now();
      Scope s("emu.save_checkpoint_file", w);
      saved = save_checkpoint_file(ckpt, path);
      save_s += since(t0);
    }
    bool loaded = false;
    if (saved) {
      ckpt_bytes += fs::file_size(path);
      const auto t0 = Clock::now();
      Scope s("emu.load_checkpoint_file", w);
      loaded = load_checkpoint_file(path).has_value();
      load_s += since(t0);
    }
    if (!loaded) checks.add("probe: checkpoint saves and reloads", false, w);
    ++ckpt_n;

    run_sim("base", base_machine(), prog, w, nullptr);
    const SimResult plain = run_sim("x2", x2, prog, w, nullptr);
    run_sim("x4", bitsliced_machine(4, kAllTechniques), prog, w, nullptr);
    run_sim("x2_cosim_off", x2, prog, w, [](Simulator& s) {
      SimOptions o;
      o.cosim = CosimMode::kOff;
      s.set_options(o);
    });
    run_sim("x2_profiled", x2, prog, w,
            [](Simulator& s) { s.enable_host_profile(); });
    const SimResult cpi = run_sim("x2_cpi", x2, prog, w,
                                  [](Simulator& s) { s.enable_cpi_stack(); });
    std::string why;
    checks.add("probe: CPI identity sum(cpi_*) == cycles x width on " + w,
               obs::cpi_identity_holds(cpi.stats, x2.core.commit_width, &why),
               why);
    // CPI accounting must not perturb anything it does not own.
    std::vector<u64> a = counters_of(plain.stats), b = counters_of(cpi.stats);
    const auto& regs = obs::simstats_counters();
    for (std::size_t i = 0; i < regs.size(); ++i)
      if (std::string(regs[i].name).rfind("cpi_", 0) == 0) a[i] = b[i] = 0;
    checks.add("probe: counters identical with CPI accounting on " + w, a == b);
  }

  // util: spawning the worker binary doing nothing.
  std::vector<std::string> spawn_ms;
  for (int i = 0; i < 10; ++i) {
    const auto t0 = Clock::now();
    Scope s("util.run_subprocess", "bsp-sweep --help");
    const SubprocessResult r = run_subprocess({env.tool("bsp-sweep"), "--help"});
    spawn_ms.push_back(jnum(since(t0) * 1e3));
    if (!r.exited(0)) checks.add("probe: worker binary spawns", false, r.err);
  }

  JObj out;
  out.num("step_instr", step_n).num("step_s", step_s);
  out.num("fast_instr", fast_n).num("fast_s", fast_s);
  out.num("ckpt_n", ckpt_n).num("ckpt_save_s", save_s);
  out.num("ckpt_load_s", load_s).num("ckpt_bytes", ckpt_bytes);
  out.raw("spawn_ms", jarr(spawn_ms));
  out.num("commit_width", x2.core.commit_width);
  JObj js;
  for (const auto& [key, p] : sims) {
    JObj one;
    one.num("seconds", p.seconds);
    JObj counters;
    for (const auto& c : obs::simstats_counters())
      counters.num(c.name, static_cast<double>(p.stats.*c.field));
    one.raw("stats", counters.done());
    const obs::HostProfile& h = p.stats.host_profile;
    one.raw("phases", JObj()
                          .num("fetch", h.fetch)
                          .num("dispatch", h.dispatch)
                          .num("select", h.select)
                          .num("memory", h.memory)
                          .num("resolve", h.resolve)
                          .num("commit", h.commit)
                          .done());
    js.raw(key, one.done());
  }
  out.raw("sims", js.done());
  return out.done();
}

// ------------------------------------------------------------------- main

std::unique_ptr<Bench> make_workload(const std::string& name) {
  if (name == "fig11") return std::make_unique<Fig11>();
  if (name == "sampled") return std::make_unique<Sampled>();
  if (name == "ffwd_sweep") return std::make_unique<FfwdSweep>();
  if (name == "serve_sweep") return std::make_unique<ServeSweep>();
  return nullptr;
}

double peak_rss_mb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return std::max(self.ru_maxrss, kids.ru_maxrss) / 1024.0;
}

std::string rep_json(const Rep& r) {
  std::vector<std::string> tasks;
  for (const TaskSample& t : r.tasks) tasks.push_back(t.json());
  JObj legs, extra;
  for (const auto& [k, v] : r.legs) legs.num(k, v);
  for (const auto& [k, v] : r.extra) extra.num(k, v);
  return JObj()
      .raw("traced", r.traced ? "true" : "false")
      .num("wall_s", r.wall_s)
      .raw("legs", legs.done())
      .raw("extra", extra.done())
      .num("ipc_err_pct", r.ipc_err_pct)
      .num("attempted", r.attempted)
      .num("failed", r.failed)
      .raw("failures", jstrs(r.failures))
      .str("digest", r.digest)
      .raw("tasks", jarr(tasks))
      .done();
}

// One workload's run: set-ups, repetitions, checks, optional probe.
std::string run_workload(Bench& wl, const Env& base_env, double seconds,
                         bool trace) {
  Env env = base_env;
  env.work = base_env.work + "/" + wl.name();
  fs::remove_all(env.work);
  fs::create_directories(env.work);

  // Set-up, several times; spans only when tracing.
  g_tracer.set_enabled(trace);
  std::vector<std::string> setup_s;
  for (int i = 0; i < 11; ++i) {
    const auto t0 = Clock::now();
    Scope s("bench.setup", wl.name());
    wl.setup(env);
    setup_s.push_back(jnum(since(t0)));
  }
  g_tracer.set_enabled(false);

  // Repetitions: a count fixed by --seconds. Traced runs alternate an
  // untraced and a traced repetition so tracing overhead is measured.
  const int reps = std::max(1, static_cast<int>(seconds / wl.nominal_rep_s() + 0.5));
  std::vector<Rep> done;
  for (int i = 0; i < (trace ? std::max(2, reps - reps % 2) : reps); ++i) {
    const bool traced = trace && i % 2 == 1;
    g_tracer.set_enabled(traced);
    Rep r;
    {
      Scope s("bench.rep", wl.name() + "/" + std::to_string(i));
      r = wl.rep(env, traced);
    }
    g_tracer.set_enabled(false);
    r.digest = digest_of(r.stats);
    r.stats.clear();
    done.push_back(std::move(r));
  }

  Checks checks;
  wl.verify(env, done, checks);
  const std::string digest = done.front().digest;
  checks.add(wl.name() + ": simulated stats identical in every repetition" +
                 (trace ? ", traced and untraced" : ""),
             every(done, [&](const Rep& r) { return r.digest == digest; }));

  std::string probe_json = "null";
  if (trace) {
    g_tracer.set_enabled(true);
    probe_json = probe(env, wl, checks);
    g_tracer.set_enabled(false);
  }

  std::vector<std::string> reps_json;
  for (const Rep& r : done) reps_json.push_back(rep_json(r));
  fs::remove_all(env.work);  // stores, caches, object files
  return JObj()
      .str("workload", wl.name())
      .raw("setup_s", jarr(setup_s))
      .raw("reps", jarr(reps_json))
      .str("digest", digest)
      .raw("correct", checks.ok ? "true" : "false")
      .raw("checks", jarr(checks.items))
      .raw("probe", probe_json)
      .done();
}

std::string spans_json() {
  std::vector<std::string> out;
  for (const Tracer::Span& s : g_tracer.spans())
    out.push_back(JObj()
                      .num("id", s.id)
                      .num("parent", s.parent)
                      .str("name", s.name)
                      .str("request", s.request)
                      .num("start", s.t0)
                      .num("end", s.t1)
                      .done());
  return jarr(out);
}

int usage(const std::string& why) {
  std::cerr << "bsp-perfbench: " << why
            << "\nusage: bsp-perfbench --workload NAME|all --seed N "
               "--seconds S --trace 0|1 --tools DIR --work DIR --out FILE "
               "[--fig11-seed N] [--allow-non-release]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, tools, work, out;
  u64 seed = 0x5eed, fig11_seed = 0x5eed;
  double seconds = 10;
  bool trace = false, allow_non_release = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") workload = value();
      else if (a == "--seed") seed = std::stoull(value(), nullptr, 0);
      else if (a == "--fig11-seed")
        fig11_seed = std::stoull(value(), nullptr, 0);
      else if (a == "--seconds") seconds = std::stod(value());
      else if (a == "--trace") trace = value() == "1";
      else if (a == "--tools") tools = value();
      else if (a == "--work") work = value();
      else if (a == "--out") out = value();
      else if (a == "--allow-non-release") allow_non_release = true;
      else return usage("unknown argument " + a);
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (tools.empty() || work.empty() || out.empty())
    return usage("--tools, --work and --out are required");
  if (std::string(BSP_BENCH_BUILD_TYPE) != "Release" && !allow_non_release)
    return usage(std::string("refusing a ") + BSP_BENCH_BUILD_TYPE +
                 " build (timings need Release; --allow-non-release "
                 "overrides)");

  std::vector<std::string> names = {workload};
  if (workload == "all") names = {"fig11", "sampled", "ffwd_sweep", "serve_sweep"};
  std::vector<std::unique_ptr<Bench>> wls;
  for (const std::string& n : names) {
    wls.push_back(make_workload(n));
    if (!wls.back()) return usage("unknown workload '" + n + "'");
  }

  Env env;
  env.seed = seed;
  env.fig11_seed = fig11_seed;
  env.slots = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  env.tools = fs::absolute(tools).string();
  env.work = fs::absolute(work).string();

  std::vector<std::string> runs;
  try {
    for (auto& wl : wls) runs.push_back(run_workload(*wl, env, seconds, trace));
  } catch (const std::exception& e) {
    std::cerr << "bsp-perfbench: " << e.what() << "\n";
    return 1;
  }

  const auto hex = [](u64 v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  const std::string provenance =
      JObj()
          .str("build_type", BSP_BENCH_BUILD_TYPE)
          .str("compiler", BSP_BENCH_COMPILER)
          .str("lto", BSP_BENCH_LTO)
          .num("nproc", std::thread::hardware_concurrency())
          .num("slots", env.slots)
          .str("cosim", "full")
          .str("seed", hex(seed))
          .str("fig11_seed", hex(fig11_seed))
          .done();
  std::ofstream os(out);
  os << JObj()
            .raw("provenance", provenance)
            .raw("runs", jarr(runs))
            .num("peak_rss_mb", peak_rss_mb())
            .raw("spans", spans_json())
            .done()
     << "\n";
  os.close();
  // A task that timed out in thread mode leaves its attempt running on a
  // detached thread; end the process without running static destructors
  // under it.
  std::fflush(nullptr);
  std::_Exit(os ? 0 : 1);
}
