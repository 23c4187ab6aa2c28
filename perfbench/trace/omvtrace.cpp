// omvtrace — the benchmark's traced run.
//
// Records spans around calls into omnivar's public functions, layer by
// layer, and writes their counts, total and self times as one JSON
// document (--result). The spans sit in this file, around the calls; the
// program itself carries no instrumentation. Phases:
//
//   scenario  materialize the paper's two platforms (registry lookup,
//             machine build, Simulator construction), several times;
//   cli       cli::run_campaign on the workload's selection: cold into a
//             fresh --out, warm into the same one, and (--serial) a cold
//             --jobs 1 reference whose per-harness times give the
//             critical path;
//   core      the statistics fig4 uses (bootstrap CI, Brown-Forsythe)
//             over every cell the cold campaign cached;
//   protocol  replays of the workload's cells through core::run_experiment
//             with spans around SimTeam::begin_run and the omp_model /
//             sim calls of each repetition: table2's dynamic_1 columns
//             (SimSchedBench::rep_time_us = ompsim::for_loop) and fig1's
//             syncbench cells (SimTeam::compute = Simulator::exec_batch,
//             then SimTeam::sync_episode). Each cell also runs once through
//             its harness's own run_protocol with no span inside, so the
//             spanned and the unspanned replays give what the spans cost;
//   sim       on every workload, direct replays of Simulator::exec on the
//             segments of one real table2 dynamic_1 loop and of
//             Simulator::exec_batch on the paper platforms' full teams.
//
// The protocol replays (spanned and unspanned) return each cell's grand
// mean so the caller can check them against the cold campaign's cached
// matrices, and the exec replay's segments must end where the real
// ompsim::for_loop ends: a replay that drifts from the code it stands for
// is reported, not trusted.
//
//   omvtrace --result FILE --work DIR --jobs N [--serial] --only H...

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "bench_suite/schedbench_sim.hpp"
#include "bench_suite/syncbench_sim.hpp"
#include "cli/campaign.hpp"
#include "core/bootstrap.hpp"
#include "core/descriptive.hpp"
#include "core/experiment.hpp"
#include "core/json_writer.hpp"
#include "core/stat_tests.hpp"
#include "core/trace_io.hpp"
#include "omp_model/team.hpp"
#include "omp_model/worksharing.hpp"
#include "scenario/registry.hpp"
#include "sim/cost_model.hpp"
#include "sim/simulator.hpp"

namespace fs = std::filesystem;
using namespace omv;

namespace {

using Clock = std::chrono::steady_clock;

// Span names; an enum keeps the per-span cost to two clock reads.
enum SpanId : std::size_t {
  kMaterialize,
  kCliCold,
  kCliWarm,
  kCliSerial,
  kCoreStats,
  kRunProtocol,
  kBeginRun,
  kForLoop,
  kExecBatch,
  kSyncEpisode,
  kExecReplay,
  kExecBatchReplay,
  kUnspannedReplay,
  kSpanCount
};
constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "scenario.materialize", "cli.run_campaign.cold",
    "cli.run_campaign.warm", "cli.run_campaign.serial",
    "core.stats",           "bench_suite.run_protocol",
    "protocol.begin_run",   "omp.for_loop",
    "sim.exec_batch",       "omp.sync_episode",
    "sim.exec.replay",      "sim.exec_batch.replay",
    "trace.unspanned_replay"};

struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

// Spans nest strictly (one thread), so a stack of open spans gives each
// span's self time: its duration minus the durations of its children.
class Tracer {
 public:
  void open(SpanId id) { stack_.push_back({id, Clock::now(), 0.0}); }
  double close() {
    const Open o = stack_.back();
    stack_.pop_back();
    const double d =
        std::chrono::duration<double>(Clock::now() - o.t0).count();
    auto& t = totals_[o.id];
    ++t.count;
    t.total_s += d;
    t.self_s += d - o.child_s;
    if (!stack_.empty()) stack_.back().child_s += d;
    return d;
  }
  [[nodiscard]] const SpanTotals& totals(SpanId id) const {
    return totals_[id];
  }

 private:
  struct Open {
    SpanId id;
    Clock::time_point t0;
    double child_s;
  };
  std::vector<Open> stack_;
  std::array<SpanTotals, kSpanCount> totals_{};
};

Tracer g_trace;

class Span {
 public:
  explicit Span(SpanId id) { g_trace.open(id); }
  ~Span() { g_trace.close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

struct Counters {
  std::uint64_t for_loop_calls = 0;
  std::uint64_t grabs = 0;
  std::uint64_t exec_batch_calls = 0;
  std::uint64_t exec_batch_threads = 0;
  std::uint64_t sync_calls = 0;
  std::uint64_t sync_threads = 0;
  std::uint64_t replayed_runs = 0;
  std::uint64_t replayed_reps = 0;
  std::uint64_t exec_replay_calls = 0;
  std::uint64_t exec_chain_mismatches = 0;
  std::uint64_t exec_batch_replay_threads = 0;
};

struct CellMean {
  std::string harness;
  std::string label;
  double mean = 0.0;
  bool spanned = true;
};

struct CliResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int rc = 0;
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// The paper protocol, fixed here rather than read from the environment.
ExperimentSpec paper_protocol(std::uint64_t seed) {
  ExperimentSpec spec;
  spec.runs = 10;
  spec.reps = 100;
  spec.warmup = 1;
  spec.seed = seed;
  return spec;
}

double flat_mean(const RunMatrix& m) {
  const auto xs = m.flatten();
  double s = 0.0;
  for (double x : xs) s += x;
  return xs.empty() ? 0.0 : s / static_cast<double>(xs.size());
}

CliResult run_cli(SpanId id, const std::vector<std::string>& args) {
  std::vector<std::string> owned{"omnivar"};
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::fflush(stdout);
  const double cpu0 = cpu_seconds();
  CliResult r;
  g_trace.open(id);
  r.rc = cli::run_campaign(static_cast<int>(owned.size()), argv.data());
  std::fflush(stdout);
  r.wall_s = g_trace.close();
  r.cpu_s = cpu_seconds() - cpu0;
  return r;
}

std::vector<double> materialize(std::size_t times) {
  std::vector<double> samples;
  std::size_t sink = 0;
  for (std::size_t i = 0; i < times; ++i) {
    g_trace.open(kMaterialize);
    for (const char* name : {"dardel", "vera"}) {
      const scenario::ScenarioSpec spec = scenario::resolve(name);
      sim::Simulator s(spec.machine.build(), spec.sim);
      sink += s.machine().n_threads();
    }
    samples.push_back(g_trace.close());
  }
  if (sink == 0) throw std::runtime_error("empty scenario");
  return samples;
}

void core_stats(const fs::path& cache) {
  std::vector<fs::path> csvs;
  for (const auto& e : fs::directory_iterator(cache)) {
    // <hash>.csv holds a cell's RunMatrix; <hash>.trace.csv sidecars hold
    // frequency traces.
    const auto& p = e.path();
    if (p.extension() == ".csv" && p.stem().extension().empty()) {
      csvs.push_back(p);
    }
  }
  std::sort(csvs.begin(), csvs.end());
  double sink = 0.0;
  Span span(kCoreStats);
  for (const auto& p : csvs) {
    const RunMatrix m = io::load_run_matrix(p.string());
    if (m.runs() < 2) continue;
    const auto flat = m.flatten();
    sink += stats::summarize(flat).mean;
    sink += stats::bootstrap_mean_ci(m.run_means()).hi;
    sink += stats::brown_forsythe(m.run(0), m.run(m.runs() - 1)).p_value;
  }
  if (sink != sink) std::fprintf(stderr, "omvtrace: NaN statistic\n");
}

// table2: schedbench dynamic_1 on the paper's four columns.
struct SchedColumn {
  const char* scenario;
  const char* display;
  std::size_t threads;
  std::uint64_t seed;
};
constexpr SchedColumn kTable2[] = {{"dardel", "Dardel", 4, 1072},
                                   {"dardel", "Dardel", 254, 1072},
                                   {"vera", "Vera", 4, 1009},
                                   {"vera", "Vera", 30, 1004}};
constexpr std::size_t kTable2MaxGrabs = 10000;
constexpr std::size_t kExecReplayLoops = 20;

// The cell once more through the harness's own run_protocol, under one
// span with nothing inside it: the baseline for trace.overhead_s.
template <class Protocol>
void unspanned_replay(const char* harness, const std::string& label,
                      std::vector<CellMean>& means, Protocol&& protocol) {
  RunMatrix m;
  {
    Span span(kUnspannedReplay);
    m = protocol();
  }
  means.push_back({harness, label, flat_mean(m), false});
}

void replay_table2(Counters& c, std::vector<CellMean>& means) {
  const auto params = bench::EpccParams::schedbench();
  for (const auto& col : kTable2) {
    const auto spec_s = scenario::resolve(col.scenario);
    sim::Simulator s(spec_s.machine.build(), spec_s.sim);
    const auto team_cfg = harness::pinned_team(col.threads);
    bench::SimSchedBench sb(s, team_cfg, params, kTable2MaxGrabs);
    const std::size_t coarsen = sb.coarsen_for(1);
    const std::size_t iters = col.threads * params.itersperthr;
    const std::size_t grabs = (iters + coarsen - 1) / coarsen;
    const ExperimentSpec spec = paper_protocol(col.seed);
    const std::string label =
        std::string(col.display) + "/t" + std::to_string(col.threads);

    unspanned_replay("table2", label, means, [&] {
      return sb.run_protocol(ompsim::Schedule::dynamic, 1, spec);
    });

    ompsim::SimTeam team(s, team_cfg, spec.seed);
    RunHooks hooks;
    hooks.before_run = [&](std::size_t, std::uint64_t run_seed) {
      Span span(kBeginRun);
      team.begin_run(run_seed);
      ++c.replayed_runs;
    };
    RunMatrix m;
    {
      Span span(kRunProtocol);
      m = run_experiment(
          spec,
          [&](const RepContext&) {
            Span loop(kForLoop);
            ++c.for_loop_calls;
            c.grabs += grabs;
            ++c.replayed_reps;
            return sb.rep_time_us(team, ompsim::Schedule::dynamic, 1);
          },
          hooks);
    }
    means.push_back({"table2", label, flat_mean(m)});
  }
}

// fig1: syncbench reduction and barrier along the paper's thread ladders.
struct SyncPlatform {
  const char* scenario;
  const char* display;
  std::vector<std::size_t> counts;
  std::uint64_t seed;
};
constexpr std::size_t kSyncGroups = 16;  // SimSyncBench's default.

void sync_rep_phase(ompsim::SimTeam& team, bench::SyncConstruct c,
                    double work_s, std::size_t repeats, Counters& k) {
  const double r = static_cast<double>(repeats);
  double cost = team.barrier_cost();
  if (c == bench::SyncConstruct::reduction) {
    team.align_clocks(team.now() + team.fork_cost() * r);
    cost += team.simulator().costs().reduction_per_level *
            static_cast<double>(sim::ceil_log2(team.size()));
  }
  {
    Span span(kExecBatch);
    team.compute(work_s * r);
  }
  {
    Span span(kSyncEpisode);
    team.sync_episode(cost, repeats);
  }
  ++k.exec_batch_calls;
  ++k.sync_calls;
  k.exec_batch_threads += team.size();
  k.sync_threads += team.size();
}

void replay_fig1(Counters& k, std::vector<CellMean>& means) {
  const std::vector<SyncPlatform> platforms = {
      {"dardel", "Dardel", {4, 8, 16, 32, 64, 96, 128, 160, 192, 254}, 2001},
      {"vera", "Vera", {2, 4, 8, 12, 16, 20, 24, 28, 30}, 2002}};
  for (const auto& p : platforms) {
    const auto spec_s = scenario::resolve(p.scenario);
    sim::Simulator s(spec_s.machine.build(), spec_s.sim);
    for (std::size_t t : p.counts) {
      const auto team_cfg = harness::pinned_team(t);
      bench::SimSyncBench sb(s, team_cfg);
      const ExperimentSpec spec = paper_protocol(p.seed + t);
      const double work_s = sb.params().delay_us * 1e-6;
      for (auto c : {bench::SyncConstruct::reduction,
                     bench::SyncConstruct::barrier}) {
        const std::string label = std::string(p.display) + "/t" +
                                  std::to_string(t) + "/" +
                                  bench::sync_construct_name(c);
        unspanned_replay("fig1", label, means,
                         [&] { return sb.run_protocol(c, spec); });

        const std::size_t inner = sb.innerreps(c);
        const std::size_t groups = std::min(kSyncGroups, inner);
        const std::size_t per_group = inner / groups;
        const std::size_t leftover = inner - per_group * groups;
        ompsim::SimTeam team(s, team_cfg, spec.seed);
        RunHooks hooks;
        hooks.before_run = [&](std::size_t, std::uint64_t run_seed) {
          Span span(kBeginRun);
          team.begin_run(run_seed);
          ++k.replayed_runs;
        };
        RunMatrix m;
        {
          Span span(kRunProtocol);
          m = run_experiment(
              spec,
              [&](const RepContext&) {
                team.begin_rep();
                const double t0 = team.now();
                for (std::size_t g = 0; g < groups; ++g) {
                  const std::size_t reps = per_group + (g < leftover ? 1 : 0);
                  if (reps) sync_rep_phase(team, c, work_s, reps, k);
                }
                ++k.replayed_reps;
                return (team.now() - t0) * 1e6;
              },
              hooks);
        }
        means.push_back({"fig1", label, flat_mean(m)});
      }
    }
  }
}

// The simulator queries on their own, on every workload. Simulator::exec
// runs the segments of one table2 dynamic_1 loop per column: the segments
// are recorded from a chain that must end where a real ompsim::for_loop
// from the same state ends, then replayed kExecReplayLoops times with
// nothing but exec calls. Simulator::exec_batch advances each paper
// platform's full team through one compute phase.
constexpr std::size_t kExecBatchReplayCalls = 4000;

struct Segment {
  std::size_t thread;
  double work;
};

// One dynamic_1 loop (chunk 1, `coarsen` grabs a segment) on `team`: the
// central queue hands the next segment to the earliest clock, through
// SimTeam::exec_at, and the implicit barrier closes the loop.
std::vector<Segment> dynamic_chain(ompsim::SimTeam& team, std::size_t iters,
                                   double work_per_iter, std::size_t coarsen) {
  const auto& costs = team.simulator().costs();
  const double grab = costs.sched_grab_base +
                      costs.sched_grab_contention *
                          static_cast<double>(team.size());
  using Entry = std::pair<double, std::size_t>;  // (clock, thread)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  std::vector<double> clock(team.clocks().begin(), team.clocks().end());
  for (std::size_t i = 0; i < clock.size(); ++i) pq.emplace(clock[i], i);
  std::vector<Segment> segs;
  for (std::size_t left = iters; left > 0;) {
    const auto [t, i] = pq.top();
    pq.pop();
    const std::size_t take = std::min(coarsen, left);
    left -= take;
    const double work = static_cast<double>(take) * work_per_iter +
                        static_cast<double>(take) * grab;
    clock[i] = team.exec_at(i, t, work);
    pq.emplace(clock[i], i);
    segs.push_back({i, work});
  }
  team.set_clocks(clock);
  team.barrier();
  return segs;
}

void replay_sim(Counters& k) {
  const auto params = bench::EpccParams::schedbench();
  const double work_per_iter = params.delay_us * 1e-6;
  for (const auto& col : kTable2) {
    const auto spec_s = scenario::resolve(col.scenario);
    sim::Simulator s(spec_s.machine.build(), spec_s.sim);
    const auto team_cfg = harness::pinned_team(col.threads);
    bench::SimSchedBench sb(s, team_cfg, params, kTable2MaxGrabs);
    const std::uint64_t run_seed = derive_run_seed(col.seed, 0);

    ompsim::SimTeam real(s, team_cfg, col.seed);
    real.begin_run(run_seed);
    (void)sb.rep_time_us(real, ompsim::Schedule::dynamic, 1);

    ompsim::SimTeam team(s, team_cfg, col.seed);
    team.begin_run(run_seed);
    team.begin_rep();
    const std::vector<double> start(team.clocks().begin(),
                                    team.clocks().end());
    const std::vector<Segment> segs =
        dynamic_chain(team, col.threads * params.itersperthr, work_per_iter,
                      sb.coarsen_for(1));
    if (team.now() != real.now()) ++k.exec_chain_mismatches;

    const auto& pl = team.placement();
    std::vector<double> clk;
    {
      Span span(kExecReplay);
      for (std::size_t loop = 0; loop < kExecReplayLoops; ++loop) {
        clk = start;
        for (const auto& g : segs) {
          const std::size_t i = g.thread;
          clk[i] = s.exec(pl.hw[i], clk[i], g.work, pl.share[i],
                          pl.smt_coscheduled[i]);
        }
      }
    }
    k.exec_replay_calls += segs.size() * kExecReplayLoops;
    if (clk[0] <= 0.0) throw std::runtime_error("exec replay stalled");
  }
  for (const char* name : {"dardel", "vera"}) {
    const auto spec_s = scenario::resolve(name);
    sim::Simulator s(spec_s.machine.build(), spec_s.sim);
    const std::size_t n = harness::spare2_team(s.machine());
    ompsim::SimTeam team(s, harness::pinned_team(n), 1);
    team.begin_run(derive_run_seed(1, 0));
    team.begin_rep();
    std::vector<double> clk(team.clocks().begin(), team.clocks().end());
    {
      Span span(kExecBatchReplay);
      for (std::size_t i = 0; i < kExecBatchReplayCalls; ++i) {
        s.exec_batch(team.placement(), 0.1e-6, clk);
      }
    }
    k.exec_batch_replay_threads += kExecBatchReplayCalls * n;
  }
}

void usage() {
  std::fprintf(stderr,
               "usage: omvtrace --result FILE --work DIR --jobs N "
               "[--serial] --only HARNESS...\n");
}

int trace_main(int argc, char** argv) {
  std::string result;
  std::string work;
  std::string jobs;
  bool serial = false;
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--result" && has_value) {
      result = argv[++i];
    } else if (a == "--work" && has_value) {
      work = argv[++i];
    } else if (a == "--jobs" && has_value) {
      jobs = argv[++i];
    } else if (a == "--only" && has_value) {
      only.emplace_back(argv[++i]);
    } else if (a == "--serial") {
      serial = true;
    } else {
      usage();
      return 2;
    }
  }
  if (result.empty() || work.empty() || jobs.empty() || only.empty()) {
    usage();
    return 2;
  }
  const auto selected = [&](const char* h) {
    return std::find(only.begin(), only.end(), h) != only.end();
  };

  const auto t_start = Clock::now();
  Counters counters;
  std::vector<CellMean> means;

  const std::vector<double> materialize_s = materialize(25);

  std::vector<std::string> args;
  for (const auto& h : only) args.insert(args.end(), {"--only", h});
  const fs::path cold = fs::path(work) / "cold";
  const fs::path ref = fs::path(work) / "serial";
  auto with = [&](const std::string& j, const fs::path& out) {
    auto a = args;
    a.insert(a.end(), {"--jobs", j, "--out", out.string()});
    return a;
  };
  const CliResult cold_r = run_cli(kCliCold, with(jobs, cold));
  // The warm re-run rewrites campaign.json; keep the cold one.
  fs::copy_file(cold / "campaign.json", fs::path(work) / "cold.campaign.json",
                fs::copy_options::overwrite_existing);
  const CliResult warm_r = run_cli(kCliWarm, with(jobs, cold));
  const CliResult serial_r =
      serial ? run_cli(kCliSerial, with("1", ref)) : CliResult{};

  core_stats(cold / "cache");
  if (selected("table2")) replay_table2(counters, means);
  if (selected("fig1")) replay_fig1(counters, means);
  replay_sim(counters);

  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t_start).count();

  json::JsonWriter w;
  w.begin_object();
  w.key("wall_s").value(wall_s);
  w.key("spans").begin_object();
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    const auto& t = g_trace.totals(static_cast<SpanId>(i));
    w.key(kSpanNames[i]).begin_object();
    w.key("count").value(t.count);
    w.key("total_s").value(t.total_s);
    w.key("self_s").value(t.self_s);
    w.end_object();
  }
  w.end_object();
  w.key("materialize_s").begin_array();
  for (double v : materialize_s) w.value(v);
  w.end_array();
  w.key("cli").begin_object();
  for (const auto& [name, r] : {std::pair{"cold", &cold_r},
                                std::pair{"warm", &warm_r},
                                std::pair{"serial", &serial_r}}) {
    w.key(name).begin_object();
    w.key("wall_s").value(r->wall_s);
    w.key("cpu_s").value(r->cpu_s);
    w.key("rc").value(r->rc);
    w.end_object();
  }
  w.end_object();
  w.key("counters").begin_object();
  w.key("omp.for_loop.calls").value(counters.for_loop_calls);
  w.key("omp.grabs").value(counters.grabs);
  w.key("sim.exec_batch.calls").value(counters.exec_batch_calls);
  w.key("sim.exec_batch.threads").value(counters.exec_batch_threads);
  w.key("omp.sync_episode.calls").value(counters.sync_calls);
  w.key("omp.sync_episode.threads").value(counters.sync_threads);
  w.key("protocol.replayed_runs").value(counters.replayed_runs);
  w.key("protocol.replayed_reps").value(counters.replayed_reps);
  w.key("sim.exec.replay_calls").value(counters.exec_replay_calls);
  w.key("sim.exec.replay_chain_mismatches")
      .value(counters.exec_chain_mismatches);
  w.key("sim.exec_batch.replay_threads")
      .value(counters.exec_batch_replay_threads);
  w.end_object();
  w.key("replay_means").begin_array();
  for (const auto& m : means) {
    w.begin_object();
    w.key("harness").value(m.harness);
    w.key("label").value(m.label);
    w.key("mean").value(m.mean);
    w.key("spanned").value(m.spanned);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::ofstream out(result, std::ios::binary | std::ios::trunc);
  out << w.str() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "omvtrace: cannot write %s\n", result.c_str());
    return 1;
  }
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  try {
    return trace_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omvtrace: %s\n", e.what());
    return 1;
  }
}
