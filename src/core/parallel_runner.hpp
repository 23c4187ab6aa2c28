#pragma once
// Sharded execution of the experiment protocol on one worker pool.
//
// The paper's protocol (R independent runs x K repetitions per
// configuration, swept over thread counts / places / bindings / governors)
// is embarrassingly parallel across (configuration, run) pairs: every run
// derives its entire state from derive_run_seed(spec.seed, run), so the
// repetition times it produces do not depend on which thread executes it or
// when. run_experiment_parallel shards a spec into per-run tasks, executes
// them on a CellPool, and reassembles RunMatrix rows in protocol order —
// the result is bit-identical to the serial run_experiment path for
// deterministic kernels.
//
// The campaign driver keeps one CellPool alive for a whole campaign and
// binds it to each unit thread (PoolScope); every run_experiment_parallel
// call on a bound thread queues its runs there, so a campaign never has
// more than the pool's workers computing at once. Unbound callers (tests,
// examples, ad-hoc embedding) get a private pool per call, or run inline
// at one job.
//
// Kernels are provided through a per-run factory (RunKernelFactory): each
// run gets a private kernel instance, so kernels may own mutable state
// (simulators, thread teams) without any synchronization. RunHooks are not
// supported here: their sequential shared-state semantics is exactly what
// the per-run factory replaces.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/deadline.hpp"
#include "core/experiment.hpp"
#include "core/run_matrix.hpp"

namespace omv {

/// Identifies one run of a spec.
struct RunSlot {
  std::size_t run = 0;         ///< run index within the spec.
  std::uint64_t run_seed = 0;  ///< derive_run_seed(spec.seed, run).
};

/// Builds the kernel executing every repetition (warmup + timed) of one
/// run. Invoked once per run, possibly concurrently with other runs.
using RunKernelFactory = std::function<RepKernel(const RunSlot&)>;

/// Resolves a job-count request: 0 becomes std::thread::hardware_concurrency
/// (at least 1); anything else is returned unchanged.
[[nodiscard]] std::size_t resolve_jobs(std::size_t requested) noexcept;

/// A fixed set of worker threads draining one priority queue of task
/// batches. A batch is n indexed tasks submitted together by one blocking
/// submitter; any number of submitter threads may share the pool.
///
/// Ordering: the batch with the highest priority dispatches first; ties
/// break by submission order, and a batch's tasks dispatch in index order
/// — so a fixed submission sequence always dispatches identically, and
/// scheduling affects wall-clock only, never results.
class CellPool {
 public:
  /// Spins up `workers` threads (>= 1 enforced).
  explicit CellPool(std::size_t workers);

  /// Joins all workers. The queue is empty by construction at destruction
  /// time: every submitter blocks inside run() until its batch finishes.
  ~CellPool();

  CellPool(const CellPool&) = delete;
  CellPool& operator=(const CellPool&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept {
    return threads_.size();
  }

  /// Batches queued with tasks not yet dispatched (for tests).
  [[nodiscard]] std::size_t queued();

  /// Runs task(0) .. task(n - 1) on pool workers at `priority` (higher
  /// dispatches first) and blocks until all have finished. Every task runs
  /// under the submitting thread's cell-deadline slot, so a cell's
  /// --cell-timeout is polled on whichever worker runs its tasks. An armed
  /// slot's clock is paused while none of the batch's tasks runs: time a
  /// cell spends queued behind other cells never counts against its
  /// budget. Once a task throws, the batch's unstarted tasks are skipped
  /// and the first exception is rethrown here after the started ones
  /// finish.
  void run(double priority, std::size_t n,
           const std::function<void(std::size_t)>& task);

 private:
  struct Batch {
    double priority = 0.0;
    std::uint64_t seq = 0;
    const std::function<void(std::size_t)>* task = nullptr;
    core::CellDeadline* deadline = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;     ///< next task index to dispatch.
    std::size_t pending = 0;  ///< dispatched-or-queued tasks not finished.
    std::size_t running = 0;  ///< tasks executing now.
    bool timed = false;       ///< `deadline` was armed at submission.
    std::int64_t idle_since_ns = 0;  ///< when `running` last fell to 0.
    std::exception_ptr error;
  };

  void worker_loop();
  /// Removes `b` from the queue (its last task has been dispatched or it
  /// was cancelled). Caller holds mutex_.
  void retire(Batch* b);

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: a batch was queued.
  std::condition_variable done_cv_;  ///< submitters: a batch finished.
  std::vector<Batch*> queue_;
  std::uint64_t next_seq_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Binds the calling thread to `pool` for the scope's lifetime: its
/// run_experiment_parallel calls (and run_on_bound_pool) submit there at
/// `priority` instead of spinning up a private pool. Restores the previous
/// binding on destruction. A null pool unbinds.
class PoolScope {
 public:
  PoolScope(CellPool* pool, double priority) noexcept;
  ~PoolScope();

  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  CellPool* prev_pool_;
  double prev_priority_;
};

/// Runs `fn` as one task on the thread's bound pool, blocking until it
/// finishes and rethrowing its exception; runs it inline when no pool is
/// bound. For serial work that must still count against the pool's
/// worker cap (a checkpointed cell's repetition loop).
void run_on_bound_pool(const std::function<void()>& fn);

/// Parallel run_experiment: shards spec.runs over the bound pool when one
/// is bound, else over a private pool of `jobs` workers (0 = hardware
/// concurrency), else — at one job or one run — inline on the calling
/// thread. Bit-identical to run_experiment for deterministic kernels.
[[nodiscard]] RunMatrix run_experiment_parallel(
    const ExperimentSpec& spec, const RunKernelFactory& make_kernel,
    std::size_t jobs = 0);

}  // namespace omv
