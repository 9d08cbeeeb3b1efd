/**
 * @file
 * Unit tests for the exec/ parallel loop: exactly-once execution
 * under skewed index costs, bitwise equality with a serial loop,
 * exception propagation and cancellation of unstarted indices,
 * inline nesting, and the WSEL_JOBS resolution rules.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/scheduler.hh"
#include "obs/metrics.hh"

namespace wsel
{

namespace
{

using exec::ThreadPool;

TEST(Scheduler, ResolveJobsAndWselJobsEnv)
{
    unsetenv("WSEL_JOBS");
    EXPECT_GE(exec::hardwareConcurrency(), 1u);
    EXPECT_EQ(exec::defaultJobs(), exec::hardwareConcurrency());
    EXPECT_EQ(exec::resolveJobs(0), exec::defaultJobs());
    EXPECT_EQ(exec::resolveJobs(1), 1u);
    EXPECT_EQ(exec::resolveJobs(7), 7u);
    EXPECT_EQ(exec::resolveJobs(1 << 20), 1024u); // clamped

    setenv("WSEL_JOBS", "3", 1);
    EXPECT_EQ(exec::defaultJobs(), 3u);
    EXPECT_EQ(exec::resolveJobs(0), 3u);
    EXPECT_EQ(exec::resolveJobs(2), 2u); // explicit beats env

    // Invalid values are ignored (with a warning), not fatal.
    for (const char *bad : {"abc", "0", "2048", "-4", "3x"}) {
        setenv("WSEL_JOBS", bad, 1);
        EXPECT_EQ(exec::defaultJobs(), exec::hardwareConcurrency())
            << "WSEL_JOBS='" << bad << "'";
    }
    unsetenv("WSEL_JOBS");
}

TEST(Scheduler, PoolHasRequestedThreadCount)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.threads(), 3u);
}

TEST(Scheduler, ParallelForMatchesSerialBitwise)
{
    const std::size_t n = 257;
    std::vector<double> serial(n), parallel(n);
    auto f = [](std::size_t i) {
        // A value whose bits depend on evaluation being identical.
        double x = static_cast<double>(i) + 0.1;
        for (int k = 0; k < 20; ++k)
            x = x * 1.0000001 + 1.0 / (x + 1.0);
        return x;
    };
    for (std::size_t i = 0; i < n; ++i)
        serial[i] = f(i);
    ThreadPool pool(4);
    exec::parallel_for(pool, std::size_t{0}, n,
                       [&](std::size_t i) { parallel[i] = f(i); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "index " << i;

    // Index-ordered reduction over per-slot results is bitwise
    // reproducible too (this is the campaign aggregation pattern).
    double s1 = 0.0, s2 = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        s1 += serial[i];
    for (std::size_t i = 0; i < n; ++i)
        s2 += parallel[i];
    EXPECT_EQ(s1, s2);
}

TEST(Scheduler, SingleWorkerPoolRunsInlineInOrder)
{
    ThreadPool pool(1);
    std::vector<std::size_t> order;
    std::vector<std::thread::id> ran_on;
    exec::parallel_for(pool, std::size_t{0}, std::size_t{16},
                       [&](std::size_t i) {
                           order.push_back(i);
                           ran_on.push_back(std::this_thread::get_id());
                       });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(order[i], i);
        // Inline execution: every index runs on the calling thread.
        EXPECT_EQ(ran_on[i], std::this_thread::get_id());
    }
}

TEST(Scheduler, SkewedParallelForRunsEveryIndexOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h.store(0);
    exec::parallel_for(pool, std::size_t{0}, n, [&](std::size_t i) {
        if (i % 16 == 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Scheduler, ExceptionCancelsOutstandingTasks)
{
    // Three threads work on the loop: two pool threads and the
    // caller.  Indices 0..2 meet at a barrier, so each thread holds
    // exactly one of them and nobody can claim index 3.  Index 0
    // then throws; 1 and 2 return only once the cancellation is
    // counted, which the pool does after moving the cursor to the
    // end.  So indices 3.. are deterministically never started.
    obs::enableMetrics();
    obs::Counter &cancelled = obs::counter("scheduler.tasks_cancelled");
    const std::uint64_t before = cancelled.value();
    ThreadPool pool(2);
    constexpr std::size_t kHeld = 3;
    constexpr std::size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h.store(0);
    std::atomic<std::size_t> arrived{0};
    EXPECT_THROW(
        exec::parallel_for(
            pool, std::size_t{0}, n,
            [&](std::size_t i) {
                hits[i].fetch_add(1);
                if (i >= kHeld)
                    return;
                arrived.fetch_add(1);
                while (arrived.load() < kHeld)
                    std::this_thread::yield();
                if (i == 0)
                    throw std::runtime_error("index failed");
                const auto give_up = std::chrono::steady_clock::now() +
                                     std::chrono::seconds(10);
                while (cancelled.value() == before &&
                       std::chrono::steady_clock::now() < give_up)
                    std::this_thread::yield();
            }),
        std::runtime_error);
    obs::enableMetrics(false);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), i < kHeld ? 1 : 0) << "index " << i;
    EXPECT_EQ(cancelled.value() - before, n - kHeld);

    // The pool survives a failed loop: the next one runs every index.
    for (auto &h : hits)
        h.store(0);
    exec::parallel_for(pool, std::size_t{0}, n,
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Scheduler, ParallelForRethrowsFirstError)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        exec::parallel_for(pool, std::size_t{0}, std::size_t{100},
                           [&](std::size_t i) {
                               if (i == 17)
                                   throw std::runtime_error("boom");
                           }),
        std::runtime_error);
}

TEST(Scheduler, NestedParallelForDoesNotDeadlock)
{
    // An inner loop on the same pool runs inline on the thread of
    // its outer index.  A lost wakeup or a worker parked forever
    // shows up here as a test timeout.
    for (const std::size_t threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        const std::size_t n = 8;
        std::vector<std::vector<int>> out(
            n, std::vector<int>(n, 0));
        exec::parallel_for(
            pool, std::size_t{0}, n, [&](std::size_t i) {
                exec::parallel_for(
                    pool, std::size_t{0}, n, [&](std::size_t j) {
                        out[i][j] = static_cast<int>(i * n + j);
                    });
            });
        long sum = 0;
        for (const auto &row : out)
            sum = std::accumulate(row.begin(), row.end(), sum);
        EXPECT_EQ(sum, static_cast<long>(n * n * (n * n - 1) / 2))
            << threads << " threads";
    }
}

} // namespace
} // namespace wsel
