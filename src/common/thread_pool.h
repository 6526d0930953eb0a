#ifndef RAVEN_COMMON_THREAD_POOL_H_
#define RAVEN_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace raven {

/// A fixed-size worker pool used for morsel-parallel query execution and
/// distributed fragment exchanges. Tasks are plain std::function<void()>;
/// completion is tracked per-batch via TaskGroup.
///
/// Nested use: once physical operators run on the pool, any code they call
/// may itself reach for the pool (e.g. a parallel hash-table build inside a
/// build pipeline that is already executing on pool workers). Queuing
/// sub-tasks from a pool worker and then blocking on them risks deadlock:
/// every pool thread could end up waiting for queue slots that only pool
/// threads can drain. TaskGroup therefore detects that it is being used
/// from inside a pool worker (InPoolWorker()) and degrades to inline
/// execution on the calling thread — correct, deadlock-free, and still
/// parallel at the outermost level.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  std::size_t num_threads() const { return threads_.size(); }

  /// True when the calling thread is one of this process's pool workers
  /// (any ThreadPool instance). Used to gate nested-parallelism fallbacks.
  static bool InPoolWorker();

  /// Shared process-wide pool sized to the hardware concurrency.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// A batch of independently-completable tasks scheduled on a ThreadPool.
/// Spawn() enqueues; Wait() blocks until every spawned task has finished,
/// with the calling thread claiming still-queued tasks so the group makes
/// progress even when all pool workers are busy elsewhere. Tasks must not
/// block on one another (no barriers between group members) — the scheduler
/// guarantees completion, not concurrency.
///
/// Spawning from inside a pool worker runs the task inline (see the
/// ThreadPool class comment). Spawn after Wait is undefined; use a fresh
/// group per batch.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool = &ThreadPool::Global());
  /// Blocks until all spawned tasks finish.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Spawn(std::function<void()> fn);
  void Wait();

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> pending;
    std::size_t outstanding = 0;  // pending + currently running
  };

  static void RunOne(const std::shared_ptr<State>& state,
                     std::function<void()> task);

  ThreadPool* pool_;
  std::shared_ptr<State> state_;
};

/// One unit of scan work in morsel-driven execution: a half-open row range
/// plus its sequence index within the source (used to restore sequential
/// output order after a parallel run).
struct Morsel {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t index = 0;
};

/// A shared atomic cursor handing out fixed-size row morsels of one source
/// to however many workers pull from it. Lock-free; each morsel is claimed
/// by exactly one worker. This is the heart of morsel-driven parallelism:
/// workers are symmetric and skew balances itself because fast workers just
/// claim more morsels.
class MorselQueue {
 public:
  MorselQueue(std::int64_t total_rows, std::int64_t morsel_rows);

  /// Claims the next morsel. Returns false when the source is exhausted.
  bool Pop(Morsel* out);

  std::int64_t total_rows() const { return total_; }
  std::int64_t morsel_rows() const { return morsel_; }
  /// Number of morsels this queue dispenses over its lifetime.
  std::int64_t num_morsels() const;

 private:
  const std::int64_t total_;
  const std::int64_t morsel_;
  std::atomic<std::int64_t> next_{0};
};

}  // namespace raven

#endif  // RAVEN_COMMON_THREAD_POOL_H_
