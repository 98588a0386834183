/**
 * @file
 * Small thread-pool job scheduler for the parallel experiment engine.
 *
 * The paper's evaluation methodology (§6) is embarrassingly parallel:
 * baselines and mix runs are pure functions of their configuration and
 * seed, so they can spread across every core of the host. JobPool owns
 * a fixed set of worker threads and executes index-addressed job
 * batches: run(n, fn) calls fn(0..n-1) exactly once each, with workers
 * claiming indices from a shared atomic cursor. Determinism is the
 * caller's contract — each job must derive all randomness from its own
 * descriptor (a fixed per-job seed, or an Rng::jobStream split stream
 * when a job needs a whole generator) and write only to its own result
 * slot, so results are bit-identical to a sequential execution
 * regardless of worker count or scheduling order.
 *
 * A pool with one worker runs jobs inline on the calling thread (the
 * legacy sequential path: no threads are spawned at all), which keeps
 * UBIK_JOBS=1 runs byte-for-byte comparable to the pre-engine code.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ubik {

/** Largest worker count `--jobs` and UBIK_JOBS accept: every worker
 *  but the caller is an OS thread. */
constexpr unsigned kMaxJobs = 1024;

class JobPool
{
  public:
    /**
     * @param workers total worker count including the submitting
     *                thread (the pool spawns workers-1 threads);
     *                0 means "all cores" (see workerCount).
     */
    explicit JobPool(unsigned workers = 0);

    /** The worker count a pool built with `requested` runs with:
     *  `requested`, or all cores (std::thread::hardware_concurrency,
     *  at least 1) when it is 0. */
    static unsigned workerCount(unsigned requested);

    /** Joins the workers. Must not be called during run(). */
    ~JobPool();

    JobPool(const JobPool &) = delete;
    JobPool &operator=(const JobPool &) = delete;

    /** Worker count this pool executes with (>= 1). */
    unsigned workers() const { return workers_; }

    /**
     * Execute fn(0), fn(1), ..., fn(n-1), each exactly once, and
     * return when all have finished. The submitting thread executes
     * jobs alongside the pool threads. Jobs are claimed dynamically,
     * so long jobs do not serialize behind short ones. If any job
     * throws, the first exception (in completion order) is rethrown
     * after the batch drains; the remaining jobs still run. Jobs run
     * under the submitting thread's FatalTrap state (common/log.h),
     * so a fatal() in a job exits or throws as it would there.
     *
     * Not reentrant: run() must not be called from inside a job, and
     * only one run() may be active per pool at a time.
     */
    void run(std::size_t n, const std::function<void(std::size_t)> &fn);

  private:
    void workerLoop();
    void runJobs();

    unsigned workers_ = 1;
    std::vector<std::thread> threads_;

    std::mutex mu_;
    std::condition_variable workCv_; ///< workers wait for a batch
    std::condition_variable doneCv_; ///< run() waits for completion

    // Active batch. jobs_/jobCount_/cursor_ are read by workers
    // outside mu_, so they are atomic; the rest is guarded by mu_.
    std::atomic<const std::function<void(std::size_t)> *> jobs_{
        nullptr};
    std::atomic<std::size_t> jobCount_{0};
    std::atomic<std::size_t> cursor_{0}; ///< next unclaimed index
    std::size_t completed_ = 0;
    unsigned active_ = 0; ///< pool threads currently inside runJobs()
    std::uint64_t batchId_ = 0;
    std::exception_ptr firstError_;
    bool trapped_ = false; ///< the submitter's fatalTrapped()
    bool shutdown_ = false;
};

} // namespace ubik
