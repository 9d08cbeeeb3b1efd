#include "exec/scheduler.hh"

#include <cstdlib>
#include <string>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/logging.hh"

namespace wsel::exec
{

namespace
{

// The pool whose loop this thread runs (its own threads for life, a
// caller while it drains): a nested parallel_for on it runs inline.
thread_local const ThreadPool *tlsPool = nullptr;

} // namespace

unsigned
hardwareConcurrency()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

unsigned
defaultJobs()
{
    const char *env = std::getenv("WSEL_JOBS");
    if (env && *env) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end && *end == '\0' && v >= 1 && v <= 1024)
            return static_cast<unsigned>(v);
        warn(std::string("ignoring invalid WSEL_JOBS '") + env +
             "' (want an integer in [1, 1024])");
    }
    return hardwareConcurrency();
}

unsigned
resolveJobs(std::size_t requested)
{
    if (requested == 0)
        return defaultJobs();
    return static_cast<unsigned>(std::min<std::size_t>(requested,
                                                       1024));
}

ThreadPool::ThreadPool(std::size_t threads)
{
    const unsigned n = resolveJobs(threads);
    for (unsigned i = 0; i < n; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::run(std::size_t begin, std::size_t end, Body body, void *ctx)
{
    if (threads_.size() <= 1 || end - begin == 1 || tlsPool == this) {
        for (std::size_t i = begin; i < end; ++i)
            body(ctx, i);
        return;
    }
    const Loop loop{body, ctx, end};
    {
        std::unique_lock<std::mutex> lk(mu_);
        idle_.wait(lk, [this] { return !open_ && active_ == 0; });
        loop_ = loop;
        next_.store(begin, std::memory_order_relaxed);
        open_ = true;
        ++generation_;
        ++active_; // the caller drains too
    }
    wake_.notify_all();
    drain(loop);
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lk(mu_);
        --active_;
        // A worker joins only while open_ holds, under mu_, so once
        // active_ is 0 here no thread can still touch this loop.
        idle_.wait(lk, [this] { return active_ == 0; });
        open_ = false;
        std::swap(error, error_); // leaves error_ empty for the next
    }
    idle_.notify_all(); // a second outside caller may be waiting
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::drain(const Loop &loop)
{
    static obs::Counter &run = obs::counter("scheduler.tasks_run");
    static obs::Counter &cancelled = obs::counter("scheduler.tasks_cancelled");
    static obs::LatencyHistogram &runNs = obs::histogram("scheduler.run_ns");
    const ThreadPool *outer = tlsPool;
    tlsPool = this;
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
         i < loop.end;
         i = next_.fetch_add(1, std::memory_order_relaxed)) {
        try {
            obs::Span span("exec.task");
            obs::LatencyHistogram::Timer timer(runNs);
            loop.body(loop.ctx, i);
            run.inc();
        } catch (...) {
            // Indices below the cursor have started; no other will.
            const std::size_t claimed = next_.exchange(loop.end);
            if (claimed < loop.end)
                cancelled.inc(loop.end - claimed);
            std::lock_guard<std::mutex> g(mu_);
            if (!error_)
                error_ = std::current_exception();
        }
    }
    tlsPool = outer;
}

void
ThreadPool::workerLoop()
{
    tlsPool = this;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        wake_.wait(lk, [&] { return stop_ || (open_ && generation_ != seen); });
        if (stop_)
            return;
        seen = generation_;
        const Loop loop = loop_;
        ++active_;
        lk.unlock();
        drain(loop);
        lk.lock();
        if (--active_ == 0)
            idle_.notify_all();
    }
}

} // namespace wsel::exec
