/**
 * @file
 * Process-global metrics registry (docs/OBSERVABILITY.md): named,
 * lazily created instruments that the scheduler, the campaign
 * runners, the persistence layer and the simulators increment on
 * their hot paths.
 *
 * Three instrument kinds:
 *
 *  - Counter: monotonically increasing u64.  Increments go to one
 *    of 64 cache-line-aligned shards chosen per thread, so
 *    concurrent workers never bounce a shared cache line; reads
 *    sum the shards.
 *  - Gauge: last-written double (queue depth, cells/sec).
 *  - LatencyHistogram: fixed log-2 buckets over nanoseconds
 *    (bucket b counts durations in [2^(b-1), 2^b)), plus exact
 *    count/sum/min/max and bucket-resolution quantiles.
 *
 * Every mutating call is gated on the process-wide `enabled`
 * atomic *before any other work*, so with metrics disabled (the
 * default) an instrumented hot path costs one relaxed atomic load
 * (bench/microbench.cc measures it).  Instruments live forever
 * once created; cache the reference at the call site:
 *
 *     static obs::Counter &cells = obs::counter("population.cells");
 *     cells.inc();
 *
 * snapshot() renders every registered instrument to JSON
 * (machine-readable, `--metrics-out`) or an aligned plain-text
 * table (bench/CLI stderr reporting).
 */

#ifndef WSEL_OBS_METRICS_HH
#define WSEL_OBS_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace wsel::obs
{

namespace detail
{

extern std::atomic<bool> gMetricsEnabled;

/** Stable per-thread shard index in [0, kCounterShards). */
std::size_t threadShard();

/** Escape @p s for a JSON string literal (metrics and trace). */
std::string jsonEscape(std::string_view s);

} // namespace detail

/** Number of per-thread cells a Counter is sharded over. */
inline constexpr std::size_t kCounterShards = 64;

/** Is metrics collection on?  One relaxed load. */
inline bool
metricsEnabled()
{
    return detail::gMetricsEnabled.load(std::memory_order_relaxed);
}

/**
 * Turn metrics collection on or off, process-wide.  Enabling also
 * pre-registers the core instrument catalog
 * (docs/OBSERVABILITY.md) so snapshots always list every standard
 * instrument, including ones whose code path never ran.
 */
void enableMetrics(bool on = true);

/** Monotonic counter, sharded per thread.  Create via counter(). */
class Counter
{
  public:
    /** Add @p n; no-op while metrics are disabled. */
    void
    inc(std::uint64_t n = 1)
    {
        if (!metricsEnabled())
            return;
        incAlways(n);
    }

    /**
     * Add @p n regardless of the enabled gate.  For obs-internal
     * bookkeeping that must never be lost (e.g. the tracer's drop
     * counter); instrumented subsystems use inc().
     */
    void
    incAlways(std::uint64_t n = 1)
    {
        shards_[detail::threadShard()].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Sum of all shards (moment-in-time, not a consistent cut). */
    std::uint64_t value() const;

    const std::string &name() const { return name_; }

  private:
    friend class Registry;
    explicit Counter(std::string name);

    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> v{0};
    };

    std::string name_;
    std::unique_ptr<Shard[]> shards_;
};

/** Last-written value (level, not rate).  Create via gauge(). */
class Gauge
{
  public:
    /** Overwrite; no-op while metrics are disabled. */
    void
    set(double v)
    {
        if (!metricsEnabled())
            return;
        setAlways(v);
    }

    /** Overwrite regardless of the enabled gate (cold paths). */
    void
    setAlways(double v)
    {
        bits_.store(pack(v), std::memory_order_relaxed);
    }

    /** Add @p d; no-op while metrics are disabled. */
    void add(double d);

    double
    value() const
    {
        return unpack(bits_.load(std::memory_order_relaxed));
    }

    const std::string &name() const { return name_; }

  private:
    friend class Registry;
    explicit Gauge(std::string name) : name_(std::move(name)) {}

    static std::uint64_t pack(double v);
    static double unpack(std::uint64_t bits);

    std::string name_;
    std::atomic<std::uint64_t> bits_{0};
};

/**
 * Log-2-bucketed latency histogram over nanoseconds.  Create via
 * histogram().
 */
class LatencyHistogram
{
  public:
    static constexpr std::size_t kBuckets = 64;

    /** Record a duration; no-op while metrics are disabled. */
    void recordNs(std::uint64_t ns);

    /** Record a steady_clock duration. */
    void
    record(std::chrono::steady_clock::duration d)
    {
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                .count();
        recordNs(ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
    }

    /**
     * RAII timer: records the scope's wall time into the
     * histogram on destruction (nothing while disabled).
     */
    class Timer
    {
      public:
        explicit Timer(LatencyHistogram &h)
            : h_(metricsEnabled() ? &h : nullptr)
        {
            if (h_)
                t0_ = std::chrono::steady_clock::now();
        }

        ~Timer()
        {
            if (h_)
                h_->record(std::chrono::steady_clock::now() - t0_);
        }

        Timer(const Timer &) = delete;
        Timer &operator=(const Timer &) = delete;

      private:
        LatencyHistogram *h_;
        std::chrono::steady_clock::time_point t0_;
    };

    std::uint64_t count() const;
    std::uint64_t sumNs() const;
    std::uint64_t minNs() const; ///< 0 when empty
    std::uint64_t maxNs() const;
    std::uint64_t bucket(std::size_t i) const;

    /**
     * Bucket-resolution quantile: the upper bound (2^b ns) of the
     * first bucket whose cumulative count reaches @p q in (0, 1].
     * 0 when empty.
     */
    std::uint64_t quantileNs(double q) const;

    const std::string &name() const { return name_; }

  private:
    friend class Registry;
    explicit LatencyHistogram(std::string name);

    std::string name_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{UINT64_MAX};
    std::atomic<std::uint64_t> max_{0};
};

/** One rendered instrument in a snapshot. */
struct MetricsEntry
{
    std::string name;
    std::string type; ///< "counter", "gauge" or "histogram"
    double value = 0.0; ///< counter/gauge value; histogram count

    // Histogram-only fields.
    std::uint64_t count = 0;
    std::uint64_t sumNs = 0;
    std::uint64_t minNs = 0;
    std::uint64_t maxNs = 0;
    std::uint64_t p50Ns = 0;
    std::uint64_t p90Ns = 0;
    std::uint64_t p99Ns = 0;
};

/** Point-in-time rendering of every registered instrument. */
struct MetricsSnapshot
{
    std::vector<MetricsEntry> entries; ///< sorted by name

    /** Machine-readable rendering (--metrics-out FILE). */
    std::string toJson() const;

    /**
     * Aligned plain-text table (stderr reporting).  A non-empty
     * @p prefix restricts it to instruments whose name starts with
     * it (e.g. "scheduler." for the verbose campaign summary).
     */
    std::string toTable(std::string_view prefix = {}) const;
};

/**
 * The process-global instrument store.  counter()/gauge()/
 * histogram() lazily create on first use and always return the
 * same instrument for a name; requesting an existing name as a
 * different kind is WSEL_FATAL.  Creation takes a mutex; the
 * returned references are valid for the process lifetime, so hot
 * paths cache them and never re-enter the registry.
 */
class Registry
{
  public:
    static Registry &instance();

    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    LatencyHistogram &histogram(std::string_view name);

    MetricsSnapshot snapshot() const;

  private:
    Registry() = default;

    struct Impl;
    Impl &impl() const;
};

/** Shorthand for Registry::instance().counter(name). */
Counter &counter(std::string_view name);

/** Shorthand for Registry::instance().gauge(name). */
Gauge &gauge(std::string_view name);

/** Shorthand for Registry::instance().histogram(name). */
LatencyHistogram &histogram(std::string_view name);

/** Shorthand for Registry::instance().snapshot(). */
MetricsSnapshot metricsSnapshot();

} // namespace wsel::obs

#endif // WSEL_OBS_METRICS_HH
