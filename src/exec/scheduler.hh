/**
 * @file
 * Parallel execution engine shared by campaigns, characterization
 * and the benches: a fixed pool of threads that runs one flat index
 * loop at a time (docs/PARALLELISM.md).  parallel_for publishes
 * [begin, end) and the loop body; the pool threads and the calling
 * thread claim indices from one atomic cursor.
 *
 *  1. Determinism: the pool decides only when and where an index
 *     runs.  Callers write per-index slots and reduce in index
 *     order, so any thread count gives the bits of a serial run.
 *  2. No deadlock under nesting: a parallel_for issued from inside
 *     a loop of the same pool runs inline, in index order.
 *  3. Fail fast: the first exception moves the cursor to the end;
 *     it is rethrown once every started index has returned.
 */

#ifndef WSEL_EXEC_SCHEDULER_HH
#define WSEL_EXEC_SCHEDULER_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace wsel::exec
{

/** std::thread::hardware_concurrency, never 0. */
unsigned hardwareConcurrency();

/**
 * Default worker count: $WSEL_JOBS when set to an integer in
 * [1, 1024] (else warned about and ignored), else all hardware threads.
 */
unsigned defaultJobs();

/** Resolve a user job request: 0 means defaultJobs(). */
unsigned resolveJobs(std::size_t requested);

/**
 * Fixed pool of threads that runs one parallel_for loop at a time,
 * with the issuing thread; a second outside caller waits its turn.
 */
class ThreadPool
{
  public:
    /** @param threads Worker count; 0 means defaultJobs(). */
    explicit ThreadPool(std::size_t threads = 0);

    /** Joins the workers; no loop may be running. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Pool threads, not counting a caller that drains too. */
    unsigned threads() const { return static_cast<unsigned>(threads_.size()); }

  private:
    template <typename Fn>
    friend void parallel_for(ThreadPool &, std::size_t, std::size_t,
                             Fn &&);

    /** A loop body without its type: body(ctx, index). */
    using Body = void (*)(void *ctx, std::size_t index);

    /** The open loop; each thread that joins it takes a copy. */
    struct Loop
    {
        Body body = nullptr;
        void *ctx = nullptr;
        std::size_t end = 0;
    };

    /** Run body(ctx, i) for every i in [begin, end). */
    void run(std::size_t begin, std::size_t end, Body body,
             void *ctx);
    /** Claim and run indices of @p loop until the cursor passes. */
    void drain(const Loop &loop);
    void workerLoop();

    std::atomic<std::size_t> next_{0}; ///< the shared index cursor

    std::mutex mu_;                ///< guards loop_ .. error_
    std::condition_variable wake_; ///< workers: a loop was opened
    std::condition_variable idle_; ///< callers: active_ fell to 0
    Loop loop_;
    std::uint64_t generation_ = 0; ///< loops opened so far
    unsigned active_ = 0;          ///< threads inside drain()
    bool open_ = false;            ///< a loop is running
    bool stop_ = false;
    std::exception_ptr error_;     ///< first error of the open loop
    std::vector<std::thread> threads_; ///< last: they use the above
};

/**
 * Apply @p fn to every index in [begin, end).  Runs inline, in index
 * order, when the pool has one thread, the range holds one index,
 * or the caller is inside a loop of this pool.  @p fn must be safe
 * to call concurrently on distinct indices; the first exception
 * stops further indices from starting and is rethrown.
 */
template <typename Fn>
void
parallel_for(ThreadPool &pool, std::size_t begin, std::size_t end,
             Fn &&fn)
{
    if (begin >= end)
        return;
    using F = std::remove_reference_t<Fn>;
    pool.run(begin, end,
             [](void *ctx, std::size_t i) { (*static_cast<F *>(ctx))(i); },
             const_cast<void *>(static_cast<const void *>(&fn)));
}

/**
 * parallel_for over [0, @p n) on a pool of min(@p jobs, @p n)
 * threads made for this call; inline when that is at most one.
 * @p jobs is a thread count: resolve 0 with resolveJobs() first.
 */
template <typename Fn>
void
forEachIndex(std::size_t jobs, std::size_t n, Fn &&fn)
{
    const std::size_t workers = std::min(jobs, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool pool(workers);
    parallel_for(pool, std::size_t{0}, n, fn);
}

} // namespace wsel::exec

#endif // WSEL_EXEC_SCHEDULER_HH
