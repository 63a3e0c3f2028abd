#include "util/thread_pool.h"

#include <algorithm>

#include "obs/clock.h"
#include "obs/fanout.h"

namespace tpf::util {

namespace {

/// Pool whose parallelFor the current thread is executing a task of. Nested
/// submissions to the same pool run inline instead of deadlocking on the
/// (already busy) workers.
thread_local const ThreadPool* tlsActivePool = nullptr;

} // namespace

ThreadPool::ThreadPool(int threads) : nThreads_(std::max(1, threads)) {
    workers_.reserve(static_cast<std::size_t>(nThreads_ - 1));
    for (int i = 0; i < nThreads_ - 1; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
}

int ThreadPool::hardwareThreads() {
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void ThreadPool::runTasks(const std::function<void(int)>& fn, int n) {
    const ThreadPool* prev = tlsActivePool;
    tlsActivePool = this;
    int i;
    while ((i = next_.fetch_add(1, std::memory_order_acquire)) < n) {
        if (!failed_.load(std::memory_order_relaxed)) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(m_);
                if (!failed_.exchange(true)) error_ = std::current_exception();
            }
        }
        completed_.fetch_add(1, std::memory_order_acq_rel);
    }
    tlsActivePool = prev;
}

void ThreadPool::workerLoop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
        wake_.wait(lk, [&] { return stop_ || jobId_ != seen; });
        if (stop_) return;
        seen = jobId_;
        // Snapshot the job under the mutex, in the same critical section as
        // the busyWorkers_ increment (see the header comment for why this
        // closes the stale-job race). fn_ is null when the job was already
        // drained and cleared before this worker woke.
        const std::function<void(int)>* fn = fn_;
        const int n = n_;
        if (!fn) continue;
        ++busyWorkers_;
        lk.unlock();
        runTasks(*fn, n);
        lk.lock();
        if (--busyWorkers_ == 0) done_.notify_all();
    }
}

void ThreadPool::parallelFor(int n, const std::function<void(int)>& fn) {
    if (n <= 0) return;
    // Fan-out telemetry (obs/fanout.h): the caller's — i.e. the rank loop
    // thread's — installed stats, if any. Nested calls run inside an outer
    // task that is already being timed, so they stay uninstrumented.
    obs::FanoutStats* stats =
        tlsActivePool == this ? nullptr : obs::threadFanoutStats();
    if (stats == nullptr) {
        parallelForImpl(n, fn);
        return;
    }
    const double t0 = obs::wallNow();
    const std::function<void(int)> timed = [&fn, stats](int i) {
        const double s = obs::wallNow();
        fn(i);
        obs::atomicAdd(stats->busySeconds, obs::wallNow() - s);
        stats->tasks.fetch_add(1, std::memory_order_relaxed);
    };
    parallelForImpl(n, timed);
    stats->fanouts.fetch_add(1, std::memory_order_relaxed);
    obs::atomicAdd(stats->wallSeconds, obs::wallNow() - t0);
}

void ThreadPool::parallelForImpl(int n, const std::function<void(int)>& fn) {
    if (nThreads_ == 1 || n == 1 || tlsActivePool == this) {
        // Serial pool, single task, or nested call: run inline.
        for (int i = 0; i < n; ++i) fn(i);
        return;
    }

    std::lock_guard<std::mutex> serial(callerM_);
    {
        std::lock_guard<std::mutex> lk(m_);
        fn_ = &fn;
        n_ = n;
        completed_.store(0, std::memory_order_relaxed);
        failed_.store(false, std::memory_order_relaxed);
        error_ = nullptr;
        ++jobId_;
        next_.store(0, std::memory_order_release);
    }
    wake_.notify_all();

    runTasks(fn, n); // the caller is one of the pool's threads

    {
        std::unique_lock<std::mutex> lk(m_);
        done_.wait(lk, [&] {
            return busyWorkers_ == 0 &&
                   completed_.load(std::memory_order_acquire) >= n;
        });
        fn_ = nullptr;
    }
    if (error_) {
        std::exception_ptr e = error_;
        error_ = nullptr;
        std::rethrow_exception(e);
    }
}

void parallelFor(ThreadPool* pool, int n, const std::function<void(int)>& fn) {
    if (pool != nullptr)
        pool->parallelFor(n, fn);
    else
        for (int i = 0; i < n; ++i) fn(i);
}

} // namespace tpf::util
