#include "common/thread_pool.h"

#include <algorithm>

namespace raven {
namespace {

thread_local bool t_in_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::InPoolWorker() { return t_in_pool_worker; }

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool =
      new ThreadPool(std::max(2u, std::thread::hardware_concurrency()));
  return *pool;
}

// ---------------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------------

TaskGroup::TaskGroup(ThreadPool* pool)
    : pool_(pool), state_(std::make_shared<State>()) {}

TaskGroup::~TaskGroup() { Wait(); }

void TaskGroup::RunOne(const std::shared_ptr<State>& state,
                       std::function<void()> task) {
  task();
  bool last;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    last = --state->outstanding == 0;
  }
  if (last) state->cv.notify_all();
}

void TaskGroup::Spawn(std::function<void()> fn) {
  if (ThreadPool::InPoolWorker()) {
    // Nested in a pool worker: run inline (see class comment).
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->pending.push_back(std::move(fn));
    ++state_->outstanding;
  }
  pool_->Submit([state = state_] {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->pending.empty()) return;  // claimed by Wait() already
      task = std::move(state->pending.front());
      state->pending.pop_front();
    }
    RunOne(state, std::move(task));
  });
}

void TaskGroup::Wait() {
  // Claim still-queued tasks so the group finishes even if every pool
  // worker is occupied elsewhere.
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (state_->pending.empty()) break;
      task = std::move(state_->pending.front());
      state_->pending.pop_front();
    }
    RunOne(state_, std::move(task));
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->outstanding == 0; });
}

// ---------------------------------------------------------------------------
// MorselQueue
// ---------------------------------------------------------------------------

MorselQueue::MorselQueue(std::int64_t total_rows, std::int64_t morsel_rows)
    : total_(std::max<std::int64_t>(0, total_rows)),
      morsel_(std::max<std::int64_t>(1, morsel_rows)) {}

bool MorselQueue::Pop(Morsel* out) {
  const std::int64_t begin = next_.fetch_add(morsel_);
  if (begin >= total_) return false;
  out->begin = begin;
  out->end = std::min(total_, begin + morsel_);
  out->index = begin / morsel_;
  return true;
}

std::int64_t MorselQueue::num_morsels() const {
  return (total_ + morsel_ - 1) / morsel_;
}

}  // namespace raven
