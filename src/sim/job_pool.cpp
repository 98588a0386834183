#include "sim/job_pool.h"

#include "common/log.h"

namespace ubik {

unsigned
JobPool::workerCount(unsigned requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

JobPool::JobPool(unsigned workers) : workers_(workerCount(workers))
{
    // The submitting thread is worker number one; spawn the rest.
    if (workers_ < 2)
        return;
    threads_.reserve(workers_ - 1);
    for (unsigned i = 0; i < workers_ - 1; i++)
        threads_.emplace_back([this] { workerLoop(); });
}

JobPool::~JobPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    workCv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
JobPool::runJobs()
{
    // Claim-and-execute until the batch cursor runs out. Each index
    // is claimed by exactly one thread via fetch_add.
    for (;;) {
        std::size_t n = jobCount_.load(std::memory_order_acquire);
        std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            return;
        const auto *fn = jobs_.load(std::memory_order_acquire);
        std::exception_ptr err;
        try {
            (*fn)(i);
        } catch (...) {
            err = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mu_);
        completed_++;
        if (err && !firstError_)
            firstError_ = err;
        if (completed_ == jobCount_.load(std::memory_order_relaxed))
            doneCv_.notify_all();
    }
}

void
JobPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        bool trapped;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait(lock, [&] {
                return shutdown_ || (jobs_.load() && batchId_ != seen);
            });
            if (shutdown_)
                return;
            seen = batchId_;
            trapped = trapped_;
            active_++;
        }
        {
            FatalTrap trap(trapped);
            runJobs();
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            active_--;
            if (active_ == 0)
                doneCv_.notify_all();
        }
    }
}

void
JobPool::run(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    // With no pool threads (one worker), the submitter below claims
    // every index itself, in order: the sequential path.
    {
        std::lock_guard<std::mutex> lock(mu_);
        ubik_assert(!jobs_.load()); // no nested/concurrent run()
        completed_ = 0;
        firstError_ = nullptr;
        trapped_ = fatalTrapped();
        batchId_++;
        cursor_.store(0, std::memory_order_relaxed);
        jobCount_.store(n, std::memory_order_release);
        jobs_.store(&fn, std::memory_order_release);
    }
    workCv_.notify_all();

    // The submitting thread works too, so a W-worker pool really runs
    // the batch on W threads.
    runJobs();

    std::exception_ptr err;
    {
        // Wait for every job AND for all pool threads to leave
        // runJobs(): a straggler's final (empty) cursor claim must not
        // land in the next batch's index space.
        std::unique_lock<std::mutex> lock(mu_);
        doneCv_.wait(lock, [&] {
            return completed_ == jobCount_.load() && active_ == 0;
        });
        err = firstError_;
        jobs_.store(nullptr, std::memory_order_release);
        jobCount_.store(0, std::memory_order_release);
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace ubik
