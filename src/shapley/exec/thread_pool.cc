#include "shapley/exec/thread_pool.h"

#include <algorithm>

namespace shapley {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  try {
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (...) {
    // Thread creation failed (e.g. EAGAIN under process limits): join the
    // workers already spawned before rethrowing — destroying a joinable
    // std::thread would call std::terminate.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutting_down_ = true;
    }
    work_available_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Shutting down and fully drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Count before running: the task may publish its result (a future
    // becoming ready) before returning, and a caller reading that result
    // must already see the task counted.
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    task();
  }
}

namespace {

// Shared state of one ParallelFor call. Helper tasks enqueued on the pool
// may only start after the loop already completed (or never run at all
// before the pool shuts down); they hold the state through a shared_ptr and
// the body by value, and exit immediately when no chunk is left to claim.
struct LoopState {
  std::function<void(size_t)> body;
  std::atomic<size_t> next{0};
  size_t end = 0;
  size_t grain = 1;
  std::atomic<size_t> remaining{0};  // Items not yet processed or abandoned.
  std::mutex mutex;
  std::condition_variable all_done;
  std::exception_ptr error;  // First failure; guarded by mutex.
};

// Marks `count` items as settled and wakes the caller when none remain.
void FinishItems(LoopState& state, size_t count) {
  if (state.remaining.fetch_sub(count) == count) {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.all_done.notify_all();
  }
}

// Claims and runs chunks until the range is exhausted. On a body failure,
// records the exception, abandons every unclaimed item (so the loop
// terminates promptly) and returns.
void RunChunks(const std::shared_ptr<LoopState>& state) {
  for (;;) {
    const size_t i0 = state->next.fetch_add(state->grain);
    if (i0 >= state->end) return;
    const size_t i1 = std::min(i0 + state->grain, state->end);
    try {
      for (size_t i = i0; i < i1; ++i) state->body(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
      }
      const size_t prev = state->next.exchange(state->end);
      const size_t abandoned = prev < state->end ? state->end - prev : 0;
      FinishItems(*state, (i1 - i0) + abandoned);
      return;
    }
    FinishItems(*state, i1 - i0);
  }
}

}  // namespace

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body,
                             size_t grain) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const size_t count = end - begin;
  if (count <= grain || workers_.empty()) {
    for (size_t i = begin; i < end; ++i) body(i);
    return;
  }

  auto state = std::make_shared<LoopState>();
  state->body = body;  // By value: a late helper may outlive the call site's
                       // reference; the shared state keeps it alive.
  state->next.store(begin);
  state->end = end;
  state->grain = grain;
  state->remaining.store(count);

  const size_t chunks = (count + grain - 1) / grain;
  const size_t helpers = std::min(workers_.size(), chunks - 1);
  for (size_t i = 0; i < helpers; ++i) {
    Enqueue([state] { RunChunks(state); });
  }
  RunChunks(state);

  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_done.wait(lock,
                       [&] { return state->remaining.load() == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace shapley
