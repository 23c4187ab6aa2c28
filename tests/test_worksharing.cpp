// Unit tests for omp_model/worksharing: schedule semantics and the
// central-queue engine.

#include "omp_model/worksharing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <ostream>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/registry.hpp"

namespace omv::ompsim {
namespace {

sim::Simulator ideal_dardel() {
  return sim::Simulator(topo::Machine::dardel(), sim::SimConfig::ideal());
}

SimTeam make_team(sim::Simulator& s, std::size_t threads) {
  TeamConfig cfg;
  cfg.n_threads = threads;
  SimTeam team(s, cfg);
  team.begin_run(1);
  return team;
}

TEST(Schedule, ParseAndNames) {
  EXPECT_EQ(parse_schedule("static"), Schedule::static_);
  EXPECT_EQ(parse_schedule("dynamic"), Schedule::dynamic);
  EXPECT_EQ(parse_schedule("guided"), Schedule::guided);
  EXPECT_THROW(static_cast<void>(parse_schedule("chaotic")), std::invalid_argument);
  EXPECT_STREQ(schedule_name(Schedule::static_), "static");
  EXPECT_STREQ(schedule_name(Schedule::dynamic), "dynamic");
  EXPECT_STREQ(schedule_name(Schedule::guided), "guided");
}

// Property: static chunk assignment covers every iteration exactly once.
struct StaticCase {
  std::size_t threads;
  std::size_t chunk;
  std::size_t total;
};

class StaticCoverage : public ::testing::TestWithParam<StaticCase> {};

TEST_P(StaticCoverage, AllIterationsAssignedOnce) {
  const auto [t, c, total] = GetParam();
  std::size_t sum = 0;
  for (std::size_t i = 0; i < t; ++i) {
    sum += static_iters_for_thread(i, t, c, total);
  }
  EXPECT_EQ(sum, total);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StaticCoverage,
    ::testing::Values(StaticCase{1, 1, 100}, StaticCase{4, 1, 100},
                      StaticCase{4, 0, 100},  // blocked (no chunk)
                      StaticCase{4, 7, 100}, StaticCase{30, 1, 8192 * 30},
                      StaticCase{254, 1, 8192 * 254}, StaticCase{3, 8, 7},
                      StaticCase{8, 16, 15},  // fewer chunks than threads
                      StaticCase{5, 3, 0}));

TEST(StaticIters, BlockedIsNearEqual) {
  // schedule(static) without chunk: sizes differ by at most one.
  const std::size_t t = 7;
  const std::size_t total = 100;
  std::size_t mn = total;
  std::size_t mx = 0;
  for (std::size_t i = 0; i < t; ++i) {
    const auto n = static_iters_for_thread(i, t, 0, total);
    mn = std::min(mn, n);
    mx = std::max(mx, n);
  }
  EXPECT_LE(mx - mn, 1u);
}

TEST(StaticIters, RoundRobinChunk1IsBalanced) {
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(static_iters_for_thread(i, 4, 1, 8), 2u);
  }
}

TEST(ForLoop, StaticIdealTimeMatchesWorkPerThread) {
  auto s = ideal_dardel();
  auto team = make_team(s, 4);
  const double t0 = team.now();
  for_loop(team, Schedule::static_, 1, 4 * 100, 1e-6);
  const double elapsed = team.now() - t0;
  // 100 iterations per thread + setup + barrier.
  const double expected = 100e-6 + s.costs().static_setup +
                          team.barrier_cost();
  EXPECT_NEAR(elapsed, expected, 1e-9);
}

TEST(ForLoop, DynamicCompletesAllWork) {
  auto s = ideal_dardel();
  auto team = make_team(s, 8);
  const double t0 = team.now();
  for_loop(team, Schedule::dynamic, 1, 8 * 64, 1e-6);
  // All 512 iterations of 1us each on 8 threads: at least 64us of pure work.
  EXPECT_GE(team.now() - t0, 64e-6);
}

TEST(ForLoop, DynamicOverheadGrowsWithThreads) {
  auto s = ideal_dardel();
  // Per-iteration overhead = grab cost, which grows with contention.
  auto team_small = make_team(s, 2);
  const double t0 = team_small.now();
  for_loop(team_small, Schedule::dynamic, 1, 2 * 256, 1e-6);
  const double per_iter_small = (team_small.now() - t0) / 256.0;

  auto team_big = make_team(s, 128);
  const double t1 = team_big.now();
  for_loop(team_big, Schedule::dynamic, 1, 128 * 256, 1e-6);
  const double per_iter_big = (team_big.now() - t1) / 256.0;

  EXPECT_GT(per_iter_big, per_iter_small);
}

TEST(ForLoop, DynamicBalancesHeterogeneousSpeeds) {
  // One slow thread (oversubscribed x2): dynamic self-balances so the
  // total is far below the static worst case.
  auto cfg = sim::SimConfig::ideal();
  sim::Simulator s(topo::Machine::dardel(), cfg);

  TeamConfig slow_cfg;
  slow_cfg.n_threads = 4;
  // Threads 0 and 1 share HW thread 0; threads 2,3 get their own.
  slow_cfg.places_spec = "{0},{0},{1},{2}";
  SimTeam dyn_team(s, slow_cfg);
  dyn_team.begin_run(1);
  const double t0 = dyn_team.now();
  for_loop(dyn_team, Schedule::dynamic, 1, 400, 1e-6);
  const double dyn_time = dyn_team.now() - t0;

  SimTeam stat_team(s, slow_cfg);
  stat_team.begin_run(1);
  const double t1 = stat_team.now();
  for_loop(stat_team, Schedule::static_, 1, 400, 1e-6);
  const double stat_time = stat_team.now() - t1;

  EXPECT_LT(dyn_time, stat_time);
}

TEST(ForLoop, GuidedCheaperThanDynamicChunk1) {
  // Guided's decaying chunk sizes mean far fewer grabs.
  auto s = ideal_dardel();
  auto team_d = make_team(s, 16);
  const double t0 = team_d.now();
  for_loop(team_d, Schedule::dynamic, 1, 16 * 512, 1e-7);
  const double dyn = team_d.now() - t0;

  auto team_g = make_team(s, 16);
  const double t1 = team_g.now();
  for_loop(team_g, Schedule::guided, 1, 16 * 512, 1e-7);
  const double gui = team_g.now() - t1;
  EXPECT_LT(gui, dyn);
}

TEST(ForLoop, CoarseningPreservesTotalWithinTolerance) {
  auto s = ideal_dardel();
  auto team_exact = make_team(s, 8);
  const double t0 = team_exact.now();
  for_loop(team_exact, Schedule::dynamic, 1, 8 * 128, 1e-6, /*coarsen=*/1);
  const double exact = team_exact.now() - t0;

  auto team_coarse = make_team(s, 8);
  const double t1 = team_coarse.now();
  for_loop(team_coarse, Schedule::dynamic, 1, 8 * 128, 1e-6, /*coarsen=*/16);
  const double coarse = team_coarse.now() - t1;

  EXPECT_NEAR(coarse, exact, exact * 0.02);
}

TEST(ForLoop, ZeroIterationsJustBarriers) {
  auto s = ideal_dardel();
  auto team = make_team(s, 4);
  const double t0 = team.now();
  for_loop(team, Schedule::dynamic, 1, 0, 1e-6);
  EXPECT_NEAR(team.now() - t0, team.barrier_cost(), 1e-9);
}

TEST(ForLoop, GuidedIgnoresCoarsen) {
  // 254 close-bound threads on Dardel leave only two cores without an SMT
  // sibling busy, so nearly every grab also draws an SMT throughput sample
  // from the simulator's RNG.
  const auto& spec = scenario::ScenarioRegistry::instance().get("dardel");
  const auto run = [&](std::size_t coarsen) {
    sim::Simulator s(spec.machine.build(), spec.sim);
    TeamConfig cfg;
    cfg.n_threads = 254;
    SimTeam team(s, cfg);
    team.begin_run(7);
    team.begin_rep();
    for_loop(team, Schedule::guided, 3, 254 * 1000, 1e-7, coarsen);
    std::vector<std::uint64_t> bits;
    for (const double c : team.clocks()) {
      bits.push_back(std::bit_cast<std::uint64_t>(c));
    }
    bits.push_back(s.rng().next_u64());
    return bits;
  };
  EXPECT_EQ(run(5), run(1));
}

TEST(ForLoop, EndsWithAlignedClocks) {
  auto s = ideal_dardel();
  auto team = make_team(s, 8);
  for_loop(team, Schedule::guided, 1, 1000, 1e-6);
  for (std::size_t i = 1; i < team.size(); ++i) {
    EXPECT_DOUBLE_EQ(team.clock(i), team.clock(0));
  }
}

// --- Differential oracle -------------------------------------------------
//
// The central-queue loop as it was first written: a std::priority_queue pop
// and push per grab, and a per-chunk loop batching `coarsen` chunks. The
// production loop (closed-form batching, replace-top heap) must hand
// SimTeam::exec_at the same arguments in the same order, so every clock and
// every draw from the simulator's shared RNG is bit-identical.

void oracle_central_queue_loop(SimTeam& team, std::size_t total_iters,
                               double work_per_iter, double grab_cost,
                               std::size_t first_chunk, std::size_t min_chunk,
                               bool guided, std::size_t coarsen) {
  const std::size_t n = team.size();
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  std::vector<double> clock(n);
  for (std::size_t i = 0; i < n; ++i) {
    clock[i] = team.clock(i);
    pq.emplace(clock[i], i);
  }
  std::size_t remaining = total_iters;
  std::size_t chunk = std::max<std::size_t>(first_chunk, 1);
  while (remaining > 0) {
    auto [t, i] = pq.top();
    pq.pop();
    std::size_t grabbed_chunks = 0;
    std::size_t iters = 0;
    while (grabbed_chunks < coarsen && remaining > 0) {
      if (guided) {
        chunk = std::max<std::size_t>(min_chunk, remaining / (2 * n));
        chunk = std::max<std::size_t>(chunk, 1);
      }
      const std::size_t take = std::min(chunk, remaining);
      iters += take;
      remaining -= take;
      ++grabbed_chunks;
    }
    const double work = static_cast<double>(iters) * work_per_iter +
                        static_cast<double>(grabbed_chunks) * grab_cost;
    const double done = team.exec_at(i, t, work);
    clock[i] = done;
    pq.emplace(done, i);
  }
  team.set_clocks(clock);
  team.barrier();
}

void oracle_for_loop(SimTeam& team, Schedule kind, std::size_t chunk,
                     std::size_t total_iters, double work_per_iter,
                     std::size_t coarsen) {
  const auto& costs = team.simulator().costs();
  const std::size_t n = team.size();
  const double grab = costs.sched_grab_base +
                      costs.sched_grab_contention * static_cast<double>(n);
  chunk = std::max<std::size_t>(chunk, 1);
  if (kind == Schedule::dynamic) {
    oracle_central_queue_loop(team, total_iters, work_per_iter, grab, chunk,
                              chunk, /*guided=*/false,
                              std::max<std::size_t>(coarsen, 1));
  } else {
    oracle_central_queue_loop(team, total_iters, work_per_iter, grab,
                              std::max<std::size_t>(total_iters / (2 * n), 1),
                              chunk, /*guided=*/true, /*coarsen=*/1);
  }
}

struct OracleTeam {
  std::string label;
  std::string scenario;
  TeamConfig cfg;
};

void PrintTo(const OracleTeam& team, std::ostream* os) { *os << team.label; }

OracleTeam pinned_team(const std::string& scenario, std::size_t threads) {
  TeamConfig cfg;
  cfg.n_threads = threads;
  cfg.places_spec = "threads";
  cfg.bind = topo::ProcBind::close;
  return {scenario + "_" + std::to_string(threads), scenario, cfg};
}

std::vector<OracleTeam> oracle_teams() {
  std::vector<OracleTeam> teams;
  for (const std::size_t t : {1, 4, 30, 254}) {
    teams.push_back(pinned_team("dardel", t));  // 254 is SMT co-scheduled
  }
  for (const std::size_t t : {1, 4, 30}) {
    teams.push_back(pinned_team("vera", t));  // Vera has 32 HW threads
  }
  OracleTeam unpinned = pinned_team("dardel", 16);
  unpinned.label = "dardel_unpinned_16";
  unpinned.cfg.bind = topo::ProcBind::none;
  teams.push_back(unpinned);
  OracleTeam oversub = pinned_team("dardel", 4);
  oversub.label = "dardel_oversubscribed_4";
  oversub.cfg.places_spec = "{0},{0},{1},{2}";
  teams.push_back(oversub);
  // Mixed P/E core classes: the per-class work-rate path of exec_at runs.
  const auto& biglittle =
      scenario::ScenarioRegistry::instance().get("biglittle");
  teams.push_back(pinned_team("biglittle", biglittle.machine.n_threads()));
  return teams;
}

/// Final clocks of one loop as raw bits, followed by the next draw of the
/// simulator's shared RNG (which pins how many draws the loop made).
std::vector<std::uint64_t> run_bits(const OracleTeam& ot, bool oracle,
                                    Schedule kind, std::size_t chunk,
                                    std::size_t total, std::size_t coarsen) {
  const auto& spec = scenario::ScenarioRegistry::instance().get(ot.scenario);
  sim::Simulator s(spec.machine.build(), spec.sim);
  SimTeam team(s, ot.cfg, 11);
  team.begin_run(5);
  team.begin_rep();
  if (oracle) {
    oracle_for_loop(team, kind, chunk, total, 1e-7, coarsen);
  } else {
    for_loop(team, kind, chunk, total, 1e-7, coarsen);
  }
  std::vector<std::uint64_t> bits;
  for (const double c : team.clocks()) {
    bits.push_back(std::bit_cast<std::uint64_t>(c));
  }
  bits.push_back(s.rng().next_u64());
  return bits;
}

class CentralQueueOracle : public ::testing::TestWithParam<OracleTeam> {};

TEST_P(CentralQueueOracle, ForLoopIsBitIdenticalToTheOracle) {
  const OracleTeam& ot = GetParam();
  const std::size_t t = ot.cfg.n_threads;
  for (const Schedule kind : {Schedule::dynamic, Schedule::guided}) {
    for (const std::size_t chunk : {1, 2, 3, 7, 64}) {
      for (const std::size_t total : {std::size_t{0}, std::size_t{1},
                                       std::size_t{10007}, t * 8192}) {
        for (const std::size_t coarsen : {1, 2, 3, 24, 208}) {
          ASSERT_EQ(run_bits(ot, false, kind, chunk, total, coarsen),
                    run_bits(ot, true, kind, chunk, total, coarsen))
              << ot.label << " " << schedule_name(kind) << " chunk=" << chunk
              << " total=" << total << " coarsen=" << coarsen;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Teams, CentralQueueOracle, ::testing::ValuesIn(oracle_teams()),
    [](const ::testing::TestParamInfo<OracleTeam>& info) {
      std::string name = info.param.label;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace omv::ompsim
