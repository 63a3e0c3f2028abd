#pragma once
/// \file thread_pool.h
/// A small persistent worker pool for intra-rank parallel kernel sweeps.
///
/// The paper's scaling experiments run one MPI rank per core; this repo's
/// vmpi ranks are threads already, so the hybrid ranks x threads mode nests a
/// pool like this inside every rank (waLBerla-style "hybrid parallelization").
/// Design constraints that shaped the interface:
///  - workers are spawned once and reused every time step (a sweep is ~ms;
///    thread creation per step would dominate),
///  - parallelFor() blocks until every task completed and the calling thread
///    participates in the work, so a pool of n threads uses exactly n cores,
///  - exceptions thrown by any task are rethrown on the caller (first one
///    wins, remaining tasks are skipped),
///  - nested parallelFor() calls on the same pool run inline on the calling
///    thread — no deadlock, no oversubscription.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tpf::util {

class ThreadPool {
public:
    /// A pool of \p threads threads total: \p threads - 1 workers are
    /// spawned, the caller of parallelFor() is the remaining one.
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int threads() const { return nThreads_; }

    /// Run fn(i) for every i in [0, n), distributed over the pool; blocks
    /// until all n tasks completed. The caller participates. If any task
    /// throws, the first exception is rethrown here after the fan-out
    /// drained; remaining unstarted tasks are skipped. Reentrant calls from
    /// inside a task execute inline (see file comment). When the caller has
    /// obs fan-out stats installed (obs/fanout.h), wall and per-task busy
    /// times are accumulated there — telemetry only, never field state.
    void parallelFor(int n, const std::function<void(int)>& fn);

    /// Hardware concurrency with a floor of 1.
    static int hardwareThreads();

private:
    void parallelForImpl(int n, const std::function<void(int)>& fn);
    void workerLoop();
    void runTasks(const std::function<void(int)>& fn, int n);

    int nThreads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex m_;
    std::condition_variable wake_; ///< workers: a new job arrived / stop
    std::condition_variable done_; ///< caller: all tasks of the job finished
    bool stop_ = false;
    int busyWorkers_ = 0; ///< workers currently inside runTasks (guarded by m_)

    // Current job, guarded by m_ except for the index/progress atomics.
    // Workers snapshot (fn_, n_) in the same m_-critical section that
    // increments busyWorkers_: a caller cannot finish its job (busyWorkers_
    // must drop to 0) — and hence no next job can be installed — while any
    // worker still holds a snapshot, so a straggler that missed a job can
    // never mix one job's task count with another's function or index
    // counter. jobId_ distinguishes jobs so a missed one is never mistaken
    // for the next.
    std::uint64_t jobId_ = 0;
    const std::function<void(int)>* fn_ = nullptr;
    int n_ = 0;
    std::atomic<int> next_{0};
    std::atomic<int> completed_{0};
    std::atomic<bool> failed_{false};
    std::exception_ptr error_;

    std::mutex callerM_; ///< serializes concurrent parallelFor callers
};

/// ThreadPool::parallelFor over \p pool, or a serial loop in index order when
/// \p pool is null.
void parallelFor(ThreadPool* pool, int n, const std::function<void(int)>& fn);

} // namespace tpf::util
