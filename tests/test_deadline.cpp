// Task-scoped cell deadlines and the campaign CellPool.
//
// The campaign worker pool runs many supervised cells concurrently in
// one process, so the --cell-timeout deadline must be task-scoped: each
// thread arms its own slot, worker threads adopt the submitting task's
// slot, and no cell can trip or disarm another cell's budget. These are
// the regression tests for the process-global slot the scheduler replaced
// (one atomic for the whole process — any concurrent cell rearming it
// would shorten or erase its neighbour's budget).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/deadline.hpp"
#include "core/parallel_runner.hpp"

namespace {

using namespace std::chrono_literals;
using omv::CellPool;
using omv::core::adopt_cell_deadline;
using omv::core::arm_cell_deadline;
using omv::core::cell_deadline_exceeded;
using omv::core::CellTimeout;
using omv::core::check_cell_deadline;
using omv::core::clear_cell_deadline;
using omv::core::current_cell_deadline;
using omv::core::interruptible_stall;

TEST(Deadline, DisarmedByDefault) {
  EXPECT_EQ(current_cell_deadline(), nullptr);
  EXPECT_FALSE(cell_deadline_exceeded());
  EXPECT_NO_THROW(check_cell_deadline());
}

TEST(Deadline, ArmTripClearOnOneThread) {
  arm_cell_deadline(1ms);
  EXPECT_NE(current_cell_deadline(), nullptr);
  std::this_thread::sleep_for(5ms);
  EXPECT_TRUE(cell_deadline_exceeded());
  EXPECT_THROW(check_cell_deadline(), CellTimeout);
  clear_cell_deadline();
  EXPECT_EQ(current_cell_deadline(), nullptr);
  EXPECT_NO_THROW(check_cell_deadline());
}

TEST(Deadline, ZeroBudgetDisarms) {
  arm_cell_deadline(50ms);
  ASSERT_NE(current_cell_deadline(), nullptr);
  arm_cell_deadline(0ms);
  EXPECT_EQ(current_cell_deadline(), nullptr);
  EXPECT_FALSE(cell_deadline_exceeded());
}

// The core regression: two overlapping cells with different budgets on
// different threads. Under the old process-global slot, cell B's 10s
// re-arm would erase cell A's 20ms budget (A never times out) and A's
// expiry could trip B. Task-scoped slots keep the budgets independent.
TEST(Deadline, OverlappingCellsKeepIndependentBudgets) {
  std::atomic<bool> a_armed{false};
  std::atomic<bool> b_armed{false};
  std::atomic<bool> a_timed_out{false};
  std::atomic<bool> b_timed_out{false};

  std::thread cell_a([&] {
    arm_cell_deadline(20ms);
    a_armed.store(true);
    while (!b_armed.load()) std::this_thread::sleep_for(1ms);
    // B re-armed its own (much longer) budget after A armed; A's 20ms
    // budget must still trip.
    try {
      interruptible_stall(500ms);
    } catch (const CellTimeout&) {
      a_timed_out.store(true);
    }
    clear_cell_deadline();
  });
  std::thread cell_b([&] {
    while (!a_armed.load()) std::this_thread::sleep_for(1ms);
    arm_cell_deadline(10'000ms);
    b_armed.store(true);
    // Wait past A's expiry (and past A's clear): B's own budget is huge
    // and must never trip, even while A's slot expires and disarms.
    std::this_thread::sleep_for(60ms);
    try {
      check_cell_deadline();
    } catch (const CellTimeout&) {
      b_timed_out.store(true);
    }
    clear_cell_deadline();
  });
  cell_a.join();
  cell_b.join();
  EXPECT_TRUE(a_timed_out.load()) << "cell A's 20ms budget never tripped";
  EXPECT_FALSE(b_timed_out.load()) << "cell B tripped a deadline it "
                                      "never exceeded";
}

// Shard workers adopt the submitting cell's slot: the adopted thread
// observes the owner's budget, and clearing on the worker detaches the
// worker without disarming the owner.
TEST(Deadline, AdoptionSharesTheOwnersBudget) {
  arm_cell_deadline(5ms);
  omv::core::CellDeadline* owner = current_cell_deadline();
  ASSERT_NE(owner, nullptr);

  std::atomic<bool> worker_saw_timeout{false};
  std::thread worker([&] {
    EXPECT_EQ(current_cell_deadline(), nullptr);
    omv::core::CellDeadline* prev = adopt_cell_deadline(owner);
    EXPECT_EQ(prev, nullptr);
    EXPECT_EQ(current_cell_deadline(), owner);
    std::this_thread::sleep_for(10ms);
    worker_saw_timeout.store(cell_deadline_exceeded());
    // Detaching the worker must not touch the owner's armed value.
    adopt_cell_deadline(prev);
    EXPECT_EQ(current_cell_deadline(), nullptr);
  });
  worker.join();
  EXPECT_TRUE(worker_saw_timeout.load());
  // The owner still observes its own (expired) deadline.
  EXPECT_TRUE(cell_deadline_exceeded());
  clear_cell_deadline();
}

TEST(CellPool, RunsTasksAndReturnsResults) {
  CellPool pool(2);
  EXPECT_EQ(pool.workers(), 2u);
  std::atomic<int> sum{0};
  pool.run(0.0, 1, [&](std::size_t) { sum += 7; });
  // A batch runs every index exactly once before run() returns.
  pool.run(1.0, 8, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 7 + 28);
  pool.run(0.0, 0, [&](std::size_t) { sum += 1000; });  // empty batch
  EXPECT_EQ(sum.load(), 35);
}

TEST(CellPool, AtLeastOneWorker) {
  CellPool pool(0);
  EXPECT_EQ(pool.workers(), 1u);
  bool ran = false;
  pool.run(0.0, 1, [&](std::size_t) { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(CellPool, PropagatesExceptionsToTheSubmitter) {
  CellPool pool(1);
  EXPECT_THROW(pool.run(0.0, 1,
                        [](std::size_t) {
                          throw std::runtime_error("cell exploded");
                        }),
               std::runtime_error);
  // A throwing task cancels its batch's unstarted tasks (one worker runs
  // them in index order, so none after index 2 starts).
  std::vector<std::size_t> ran;
  EXPECT_THROW(pool.run(0.0, 6,
                        [&](std::size_t i) {
                          ran.push_back(i);
                          if (i == 2) throw std::logic_error("run 2");
                        }),
               std::logic_error);
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));
  // The pool survives throwing tasks and keeps serving.
  bool ok = false;
  pool.run(0.0, 1, [&](std::size_t) { ok = true; });
  EXPECT_TRUE(ok);
}

// Higher priority dispatches first; ties break by submission order, and a
// batch's tasks dispatch in index order. A single worker plus pre-queued
// batches makes dispatch order observable.
TEST(CellPool, DispatchesHighestPriorityFirstThenSubmissionOrder) {
  CellPool pool(1);
  std::vector<int> order;
  std::mutex order_mutex;
  const auto record = [&](int id) {
    std::lock_guard lock(order_mutex);
    order.push_back(id);
  };

  // Block the single worker so the remaining submissions queue up.
  std::atomic<bool> gate_running{false};
  std::atomic<bool> release{false};
  std::thread gate([&] {
    pool.run(100.0, 1, [&](std::size_t) {
      gate_running.store(true);
      while (!release.load()) std::this_thread::sleep_for(1ms);
    });
  });
  while (!gate_running.load()) std::this_thread::sleep_for(1ms);
  // Submitters block inside run(); queue from their own threads, each
  // after the previous one's batch is queued. Batch `id` has two tasks,
  // recorded as id*10 and id*10+1.
  std::vector<std::thread> submitters;
  const auto submit = [&](double prio, int id) {
    const std::size_t before = pool.queued();
    submitters.emplace_back([&, prio, id] {
      pool.run(prio, 2, [&, id](std::size_t i) {
        record(id * 10 + static_cast<int>(i));
      });
    });
    while (pool.queued() == before) std::this_thread::sleep_for(1ms);
  };
  submit(1.0, 1);
  submit(5.0, 2);
  submit(5.0, 3);
  release.store(true);
  gate.join();
  for (auto& t : submitters) t.join();
  // 2 and 3 share the top priority (submission order breaks the tie);
  // 1 dispatches last.
  EXPECT_EQ(order, (std::vector<int>{20, 21, 30, 31, 10, 11}));
}

// Tasks run under their submitter's deadline slot: concurrent cells on
// different workers keep independent budgets even inside the pool, and a
// worker detaches from a task's slot when the task ends.
TEST(CellPool, WorkersCarryIndependentDeadlines) {
  CellPool pool(2);
  std::atomic<bool> short_armed{false};
  std::atomic<bool> long_armed{false};
  std::atomic<bool> short_tripped{false};
  std::atomic<bool> long_tripped{false};

  std::thread a([&] {
    arm_cell_deadline(10ms);
    omv::core::CellDeadline* own = current_cell_deadline();
    short_armed.store(true);
    pool.run(0.0, 1, [&](std::size_t) {
      EXPECT_EQ(current_cell_deadline(), own);
      while (!long_armed.load()) std::this_thread::sleep_for(1ms);
      try {
        interruptible_stall(500ms);
      } catch (const CellTimeout&) {
        short_tripped.store(true);
      }
    });
    clear_cell_deadline();
  });
  std::thread b([&] {
    while (!short_armed.load()) std::this_thread::sleep_for(1ms);
    arm_cell_deadline(10'000ms);
    long_armed.store(true);
    pool.run(0.0, 1, [&](std::size_t) {
      std::this_thread::sleep_for(40ms);
      try {
        check_cell_deadline();
      } catch (const CellTimeout&) {
        long_tripped.store(true);
      }
    });
    clear_cell_deadline();
  });
  a.join();
  b.join();
  EXPECT_TRUE(short_tripped.load());
  EXPECT_FALSE(long_tripped.load());
  // A submitter without a deadline hands its tasks none.
  pool.run(0.0, 2, [](std::size_t) {
    EXPECT_EQ(current_cell_deadline(), nullptr);
  });
}

// A batch's deadline clock pauses while none of its tasks runs — queued
// behind another cell before it starts, or preempted by a higher-priority
// cell between its tasks — so only the cell's own compute counts against
// its budget. Here the cell computes for milliseconds but waits ~600 ms.
TEST(CellPool, TimeWithNoTaskRunningCostsNoBudget) {
  CellPool pool(1);
  const auto hog = [&pool](std::atomic<bool>* running) {
    return std::thread([&pool, running] {
      pool.run(1.0, 1, [running](std::size_t) {
        running->store(true);
        std::this_thread::sleep_for(300ms);
      });
    });
  };
  std::atomic<bool> first_running{false};
  std::atomic<bool> second_running{false};
  std::thread first = hog(&first_running);
  while (!first_running.load()) std::this_thread::sleep_for(1ms);

  std::thread second;
  arm_cell_deadline(100ms);
  EXPECT_NO_THROW(pool.run(0.0, 2, [&](std::size_t i) {
    if (i == 0) {
      // Queue the second hog; it outranks this batch's task 1.
      second = hog(&second_running);
      while (pool.queued() < 2) std::this_thread::sleep_for(1ms);
    } else {
      EXPECT_TRUE(second_running.load());
    }
    check_cell_deadline();
  }));
  EXPECT_FALSE(cell_deadline_exceeded());
  clear_cell_deadline();
  first.join();
  second.join();
}

}  // namespace
