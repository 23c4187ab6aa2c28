#include "core/parallel_runner.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace omv {

namespace {

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::size_t resolve_jobs(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

CellPool::CellPool(std::size_t workers) {
  const std::size_t n = std::max<std::size_t>(1, workers);
  threads_.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

CellPool::~CellPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::size_t CellPool::queued() {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

void CellPool::retire(Batch* b) {
  queue_.erase(std::find(queue_.begin(), queue_.end(), b));
}

void CellPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ set and nothing pending
    // Linear scan for (max priority, min seq). Submitters block per batch,
    // so the live queue holds at most one batch per submitting thread; a
    // heap would not pay for its complexity here.
    Batch* b = queue_.front();
    for (Batch* c : queue_) {
      if (c->priority > b->priority ||
          (c->priority == b->priority && c->seq < b->seq)) {
        b = c;
      }
    }
    const std::size_t i = b->next++;
    if (b->next == b->n) retire(b);
    if (b->running++ == 0 && b->timed) {
      // Resume the submitter's deadline clock: push the deadline back by
      // the time the batch sat with no task running.
      b->deadline->at_ns.fetch_add(steady_ns() - b->idle_since_ns,
                                   std::memory_order_relaxed);
    }
    lock.unlock();

    core::CellDeadline* prev = core::adopt_cell_deadline(b->deadline);
    std::exception_ptr error;
    try {
      (*b->task)(i);
    } catch (...) {
      error = std::current_exception();
    }
    (void)core::adopt_cell_deadline(prev);

    lock.lock();
    if (error) {
      if (!b->error) b->error = error;
      if (b->next < b->n) {
        // Cancel the batch's unstarted tasks: they count as finished.
        b->pending -= b->n - b->next;
        b->next = b->n;
        retire(b);
      }
    }
    if (--b->running == 0 && b->timed) b->idle_since_ns = steady_ns();
    if (--b->pending == 0) done_cv_.notify_all();
  }
}

void CellPool::run(double priority, std::size_t n,
                   const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  Batch b;
  b.priority = priority;
  b.task = &task;
  b.deadline = core::current_cell_deadline();
  b.n = n;
  b.pending = n;
  b.timed = b.deadline != nullptr &&
            b.deadline->at_ns.load(std::memory_order_relaxed) != 0;
  b.idle_since_ns = b.timed ? steady_ns() : 0;
  std::unique_lock lock(mutex_);
  b.seq = next_seq_++;
  queue_.push_back(&b);
  work_cv_.notify_all();
  done_cv_.wait(lock, [&b] { return b.pending == 0; });
  if (b.error) std::rethrow_exception(b.error);
}

namespace {

// The pool this thread's run_experiment_parallel calls submit to, and the
// priority they submit at (see PoolScope).
thread_local CellPool* t_pool = nullptr;
thread_local double t_priority = 0.0;

}  // namespace

PoolScope::PoolScope(CellPool* pool, double priority) noexcept
    : prev_pool_(t_pool), prev_priority_(t_priority) {
  t_pool = pool;
  t_priority = priority;
}

PoolScope::~PoolScope() {
  t_pool = prev_pool_;
  t_priority = prev_priority_;
}

void run_on_bound_pool(const std::function<void()>& fn) {
  if (t_pool == nullptr) {
    fn();
    return;
  }
  t_pool->run(t_priority, 1, [&fn](std::size_t) { fn(); });
}

RunMatrix run_experiment_parallel(const ExperimentSpec& spec,
                                  const RunKernelFactory& make_kernel,
                                  std::size_t jobs) {
  // Pre-size the rows so tasks write disjoint slots and the final assembly
  // preserves protocol run order exactly.
  std::vector<std::vector<double>> rows(spec.runs);
  const std::function<void(std::size_t)> run_task = [&](std::size_t r) {
    const RunSlot slot{r, derive_run_seed(spec.seed, r)};
    rows[r] = execute_run(spec, make_kernel(slot), r, slot.run_seed);
  };
  const std::size_t workers = std::min(resolve_jobs(jobs), spec.runs);
  if (t_pool != nullptr) {
    t_pool->run(t_priority, spec.runs, run_task);
  } else if (workers <= 1) {
    for (std::size_t r = 0; r < spec.runs; ++r) run_task(r);
  } else {
    CellPool(workers).run(0.0, spec.runs, run_task);
  }
  RunMatrix m(spec.name);
  for (auto& row : rows) m.add_run(std::move(row));
  return m;
}

}  // namespace omv
