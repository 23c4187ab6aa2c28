// Unit tests for core/parallel_runner: sharded protocol execution on the
// campaign worker pool. The load-bearing property is bit-identity: for a
// deterministic kernel, the parallel path must produce exactly the
// RunMatrix the serial run_experiment path produces, at any job count and
// whether the runs go to a private or a shared pool.

#include "core/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_suite/syncbench_sim.hpp"
#include "core/rng.hpp"
#include "sim/simulator.hpp"
#include "topo/topology.hpp"

namespace omv {
namespace {

/// A deterministic kernel: pure function of (run_seed, rep), exactly what
/// the simulator-backed kernels are after begin_run re-derives their state.
double pure_kernel(const RepContext& c) {
  Rng rng(c.run_seed);
  double v = 0.0;
  for (std::size_t i = 0; i <= c.rep; ++i) v = rng.next_double();
  return v + static_cast<double>(c.rep);
}

RunKernelFactory pure_factory() {
  return [](const RunSlot&) -> RepKernel { return pure_kernel; };
}

ExperimentSpec small_spec(std::uint64_t seed = 42) {
  ExperimentSpec spec;
  spec.name = "parallel-test";
  spec.runs = 7;
  spec.reps = 11;
  spec.warmup = 2;
  spec.seed = seed;
  return spec;
}

void expect_bit_identical(const RunMatrix& a, const RunMatrix& b) {
  ASSERT_EQ(a.runs(), b.runs());
  EXPECT_EQ(a.label(), b.label());
  for (std::size_t r = 0; r < a.runs(); ++r) {
    ASSERT_EQ(a.run(r).size(), b.run(r).size()) << "run " << r;
    for (std::size_t k = 0; k < a.run(r).size(); ++k) {
      // Exact double equality on purpose: the guarantee is bit-identity,
      // not approximate agreement.
      EXPECT_EQ(a.run(r)[k], b.run(r)[k]) << "run " << r << " rep " << k;
    }
  }
}

TEST(ParallelRunner, MatchesSerialBitIdentical) {
  const auto spec = small_spec();
  const RunMatrix serial = run_experiment(spec, pure_kernel);
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                           std::size_t{16}}) {
    const RunMatrix parallel =
        run_experiment_parallel(spec, pure_factory(), jobs);
    expect_bit_identical(serial, parallel);
  }
}

TEST(ParallelRunner, SimSyncBenchParallelMatchesSerial) {
  sim::Simulator s(topo::Machine::vera(), sim::SimConfig::vera());
  ompsim::TeamConfig team;
  team.n_threads = 8;
  bench::SimSyncBench sb(s, team);
  ExperimentSpec spec;
  spec.runs = 4;
  spec.reps = 5;
  spec.seed = 99;
  const auto serial = sb.run_protocol(bench::SyncConstruct::reduction, spec);
  const auto parallel =
      sb.run_protocol(bench::SyncConstruct::reduction, spec, 3);
  expect_bit_identical(serial, parallel);
}

TEST(ParallelRunner, Jobs1RunsInlineOnCallingThread) {
  std::atomic<int> off_thread{0};
  const auto caller = std::this_thread::get_id();
  ExperimentSpec spec = small_spec();
  const auto factory = [&](const RunSlot&) -> RepKernel {
    return [&, caller](const RepContext& c) {
      if (std::this_thread::get_id() != caller) ++off_thread;
      return pure_kernel(c);
    };
  };
  const auto m = run_experiment_parallel(spec, factory, 1);
  EXPECT_EQ(off_thread.load(), 0);
  expect_bit_identical(run_experiment(spec, pure_kernel), m);
}

TEST(ParallelRunner, MoreJobsThanRunsStillCorrect) {
  ExperimentSpec spec = small_spec();
  spec.runs = 2;
  const auto m = run_experiment_parallel(spec, pure_factory(), 64);
  expect_bit_identical(run_experiment(spec, pure_kernel), m);
}

TEST(ParallelRunner, KernelExceptionPropagates) {
  ExperimentSpec spec = small_spec();
  const auto factory = [](const RunSlot& slot) -> RepKernel {
    return [run = slot.run](const RepContext& c) -> double {
      if (run == 3 && c.rep == 1 && !c.warmup) {
        throw std::runtime_error("kernel blew up");
      }
      return 1.0;
    };
  };
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_THROW((void)run_experiment_parallel(spec, factory, jobs),
                 std::runtime_error)
        << "jobs=" << jobs;
  }
}

TEST(ParallelRunner, FactoryExceptionPropagates) {
  ExperimentSpec spec = small_spec();
  const auto factory = [](const RunSlot& slot) -> RepKernel {
    if (slot.run == 1) throw std::logic_error("no kernel for you");
    return pure_kernel;
  };
  EXPECT_THROW((void)run_experiment_parallel(spec, factory, 4),
               std::logic_error);
}

TEST(ParallelRunner, FactorySeesProtocolRunSeeds) {
  ExperimentSpec spec = small_spec(1234);
  std::mutex mu;
  std::vector<RunSlot> slots;
  const auto factory = [&](const RunSlot& slot) -> RepKernel {
    {
      std::lock_guard lock(mu);
      slots.push_back(slot);
    }
    return pure_kernel;
  };
  (void)run_experiment_parallel(spec, factory, 4);
  ASSERT_EQ(slots.size(), spec.runs);
  for (const auto& slot : slots) {
    EXPECT_EQ(slot.run_seed, derive_run_seed(spec.seed, slot.run));
  }
}

// The campaign's concurrency cap: three unit threads bound to one
// 2-worker pool, each sharding several runs at --jobs 4, never have more
// than 2 kernels executing at once — and each still gets its serial bytes.
TEST(ParallelRunner, BoundPoolCapsConcurrentKernelsAtItsWorkers) {
  CellPool pool(2);
  std::atomic<int> running{0};
  std::atomic<int> max_running{0};
  const auto factory = [&](const RunSlot&) -> RepKernel {
    return [&](const RepContext& c) {
      const int now = ++running;
      int seen = max_running.load();
      while (now > seen && !max_running.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      --running;
      return pure_kernel(c);
    };
  };
  std::vector<RunMatrix> results(3);
  std::vector<std::thread> submitters;
  for (std::size_t u = 0; u < results.size(); ++u) {
    submitters.emplace_back([&, u] {
      const PoolScope scope(&pool, static_cast<double>(u));
      results[u] = run_experiment_parallel(small_spec(10 + u), factory, 4);
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_LE(max_running.load(), 2);
  EXPECT_GE(max_running.load(), 1);
  for (std::size_t u = 0; u < results.size(); ++u) {
    expect_bit_identical(run_experiment(small_spec(10 + u), pure_kernel),
                         results[u]);
  }
  // The scopes bound only their own threads: this one still runs inline.
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  run_on_bound_pool([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ParallelRunner, RunOnBoundPoolUsesAWorkerOnlyWhenBound) {
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  run_on_bound_pool([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);  // unbound: inline
  CellPool pool(1);
  {
    const PoolScope scope(&pool, 0.0);
    run_on_bound_pool([&] { ran_on = std::this_thread::get_id(); });
    EXPECT_NE(ran_on, caller);
    EXPECT_THROW(run_on_bound_pool([] { throw std::runtime_error("x"); }),
                 std::runtime_error);
  }
  // The scope's end restores the unbound state.
  run_on_bound_pool([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ParallelRunner, ResolveJobs) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
}

TEST(RunMatrix, AppendRunsMergesShards) {
  RunMatrix a("shard");
  a.add_run({1.0, 2.0});
  RunMatrix b("ignored-label");
  b.add_run({3.0, 4.0});
  b.add_run({5.0});
  a.append_runs(b);
  ASSERT_EQ(a.runs(), 3u);
  EXPECT_EQ(a.label(), "shard");
  EXPECT_EQ(a.run(1)[0], 3.0);
  EXPECT_EQ(a.run(2)[0], 5.0);
}

TEST(RunMatrix, SelfAppendDuplicatesRuns) {
  RunMatrix m("self");
  m.add_run({1.0});
  m.add_run({2.0, 3.0});
  m.append_runs(m);
  ASSERT_EQ(m.runs(), 4u);
  EXPECT_EQ(m.run(2)[0], 1.0);
  EXPECT_EQ(m.run(3)[0], 2.0);
  EXPECT_EQ(m.run(3)[1], 3.0);
}

}  // namespace
}  // namespace omv
