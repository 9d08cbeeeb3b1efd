#include "obs/metrics.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>

#include "stats/logging.hh"

namespace wsel::obs
{

namespace detail
{

std::atomic<bool> gMetricsEnabled{false};

std::size_t
threadShard()
{
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t shard =
        next.fetch_add(1, std::memory_order_relaxed) %
        kCounterShards;
    return shard;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

} // namespace detail

namespace
{

/** Human-friendly duration for the plain-text table. */
std::string
humanNs(std::uint64_t ns)
{
    char buf[32];
    if (ns < 1000)
        std::snprintf(buf, sizeof buf, "%lluns",
                      static_cast<unsigned long long>(ns));
    else if (ns < 1000 * 1000)
        std::snprintf(buf, sizeof buf, "%.1fus", ns / 1e3);
    else if (ns < 1000ULL * 1000 * 1000)
        std::snprintf(buf, sizeof buf, "%.1fms", ns / 1e6);
    else
        std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
    return buf;
}

/** Render a double without trailing-zero noise. */
std::string
compactDouble(double v)
{
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::abs(v) < 1e15) {
        return std::to_string(static_cast<long long>(v));
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

/**
 * The standard instrument catalog (docs/OBSERVABILITY.md).
 * Pre-registered when metrics are enabled so a snapshot always
 * lists every core instrument, even ones whose owning code path
 * did not run.
 */
struct CatalogEntry
{
    const char *name;
    char kind; ///< 'c', 'g' or 'h'
};

constexpr CatalogEntry kCatalog[] = {
    {"scheduler.tasks_run", 'c'},
    {"scheduler.tasks_cancelled", 'c'},
    {"scheduler.run_ns", 'h'},
    {"persist.cache_hit", 'c'},
    {"persist.cache_miss", 'c'},
    {"persist.cache_quarantine", 'c'},
    {"badco.models_built", 'c'},
    {"badco.build_ns", 'h'},
    {"sim.detailed.cells", 'c'},
    {"sim.detailed.cell_ns", 'h'},
    {"sim.badco.cells", 'c'},
    {"sim.badco.cell_ns", 'h'},
    {"batch.cells", 'c'},
    {"batch.lanes_active", 'g'},
    {"batch.simd_path", 'g'},
    {"trace_store.chunks_built", 'c'},
    {"trace_store.chunk_hits", 'c'},
    {"trace_store.chunks_evicted", 'c'},
    {"trace_store.resident_bytes", 'g'},
    {"trace_store.build_ns", 'h'},
    {"population.cells", 'c'},
    {"population.cells_resumed", 'c'},
    {"population.shards_written", 'c'},
    {"population.bytes", 'c'},
    {"population.cells_per_sec", 'g'},
    {"population.shard_write_ns", 'h'},
    {"serve.campaigns_submitted", 'c'},
    {"serve.campaigns_rejected", 'c'},
    {"serve.leases_granted", 'c'},
    {"serve.leases_expired", 'c'},
    {"serve.leases_requeued", 'c'},
    {"serve.shards_quarantined", 'c'},
    {"serve.dedup_hits", 'c'},
    {"serve.duplicate_completions", 'c'},
    {"serve.campaigns_stopped", 'c'},
    {"serve.accept_errors", 'c'},
    {"serve.workers_active", 'g'},
    {"serve.lease_ns", 'h'},
    {"adaptive.batches", 'c'},
    {"adaptive.cells", 'c'},
    {"adaptive.cells_resumed", 'c'},
    {"adaptive.cells_saved", 'c'},
    {"adaptive.confidence", 'g'},
    {"fidelity.cells_escalated", 'c'},
    {"fidelity.cells_total", 'c'},
    {"fidelity.escalation_fraction", 'g'},
    {"fidelity.detailed_ns", 'h'},
    {"serve.escalations_started", 'c'},
    {"serve.escalated_rows", 'g'},
    {"log.warns", 'c'},
    {"trace.dropped", 'c'},
};

} // namespace

// -------------------------------------------------------------------
// Counter
// -------------------------------------------------------------------

Counter::Counter(std::string name)
    : name_(std::move(name)), shards_(new Shard[kCounterShards])
{}

std::uint64_t
Counter::value() const
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kCounterShards; ++i)
        sum += shards_[i].v.load(std::memory_order_relaxed);
    return sum;
}

// -------------------------------------------------------------------
// Gauge
// -------------------------------------------------------------------

std::uint64_t
Gauge::pack(double v)
{
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

double
Gauge::unpack(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

void
Gauge::add(double d)
{
    if (!metricsEnabled())
        return;
    std::uint64_t have = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        have, pack(unpack(have) + d), std::memory_order_relaxed))
        ;
}

// -------------------------------------------------------------------
// LatencyHistogram
// -------------------------------------------------------------------

LatencyHistogram::LatencyHistogram(std::string name)
    : name_(std::move(name)),
      buckets_(new std::atomic<std::uint64_t>[kBuckets])
{
    for (std::size_t i = 0; i < kBuckets; ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
LatencyHistogram::recordNs(std::uint64_t ns)
{
    if (!metricsEnabled())
        return;
    const std::size_t b =
        ns == 0 ? 0
                : std::min<std::size_t>(std::bit_width(ns),
                                        kBuckets - 1);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t have = min_.load(std::memory_order_relaxed);
    while (ns < have &&
           !min_.compare_exchange_weak(have, ns,
                                       std::memory_order_relaxed))
        ;
    have = max_.load(std::memory_order_relaxed);
    while (ns > have &&
           !max_.compare_exchange_weak(have, ns,
                                       std::memory_order_relaxed))
        ;
}

std::uint64_t
LatencyHistogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

std::uint64_t
LatencyHistogram::sumNs() const
{
    return sum_.load(std::memory_order_relaxed);
}

std::uint64_t
LatencyHistogram::minNs() const
{
    const std::uint64_t v = min_.load(std::memory_order_relaxed);
    return v == UINT64_MAX ? 0 : v;
}

std::uint64_t
LatencyHistogram::maxNs() const
{
    return max_.load(std::memory_order_relaxed);
}

std::uint64_t
LatencyHistogram::bucket(std::size_t i) const
{
    WSEL_ASSERT(i < kBuckets, "histogram bucket out of range");
    return buckets_[i].load(std::memory_order_relaxed);
}

std::uint64_t
LatencyHistogram::quantileNs(double q) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    const std::uint64_t want = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(q * static_cast<double>(n)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        seen += buckets_[b].load(std::memory_order_relaxed);
        if (seen >= want) {
            // Upper bound of bucket b: 2^b ns (bucket 0 is [0,1]).
            return b == 0 ? 1
                          : (b >= 63 ? UINT64_MAX : (1ULL << b));
        }
    }
    return maxNs();
}

// -------------------------------------------------------------------
// Registry
// -------------------------------------------------------------------

struct Registry::Impl
{
    mutable std::mutex mu;
    // Ordered maps so snapshots come out name-sorted for free.
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>>
        gauges;
    std::map<std::string, std::unique_ptr<LatencyHistogram>,
             std::less<>>
        histograms;

    /** Fatal when @p name already exists as another kind. */
    void
    checkKind(std::string_view name, const char *want) const
    {
        const bool c = counters.find(name) != counters.end();
        const bool g = gauges.find(name) != gauges.end();
        const bool h = histograms.find(name) != histograms.end();
        const int other =
            (c && std::string_view(want) != "counter") +
            (g && std::string_view(want) != "gauge") +
            (h && std::string_view(want) != "histogram");
        if (other)
            WSEL_FATAL("metric '" << name << "' requested as "
                       << want
                       << " but already registered as another "
                          "kind");
    }
};

Registry::Impl &
Registry::impl() const
{
    // Deliberately leaked: instruments are read from static
    // destructors (bench ObsSession flushes at exit), so the
    // registry must outlive every other static in the process.
    static Impl *i = new Impl;
    return *i;
}

Registry &
Registry::instance()
{
    static Registry *r = new Registry;
    return *r;
}

Counter &
Registry::counter(std::string_view name)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> g(im.mu);
    auto it = im.counters.find(name);
    if (it == im.counters.end()) {
        im.checkKind(name, "counter");
        it = im.counters
                 .emplace(std::string(name),
                          std::unique_ptr<Counter>(
                              new Counter(std::string(name))))
                 .first;
    }
    return *it->second;
}

Gauge &
Registry::gauge(std::string_view name)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> g(im.mu);
    auto it = im.gauges.find(name);
    if (it == im.gauges.end()) {
        im.checkKind(name, "gauge");
        it = im.gauges
                 .emplace(std::string(name),
                          std::unique_ptr<Gauge>(
                              new Gauge(std::string(name))))
                 .first;
    }
    return *it->second;
}

LatencyHistogram &
Registry::histogram(std::string_view name)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> g(im.mu);
    auto it = im.histograms.find(name);
    if (it == im.histograms.end()) {
        im.checkKind(name, "histogram");
        it = im.histograms
                 .emplace(std::string(name),
                          std::unique_ptr<LatencyHistogram>(
                              new LatencyHistogram(
                                  std::string(name))))
                 .first;
    }
    return *it->second;
}

MetricsSnapshot
Registry::snapshot() const
{
    Impl &im = impl();
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> g(im.mu);
    snap.entries.reserve(im.counters.size() + im.gauges.size() +
                         im.histograms.size());
    for (const auto &[name, c] : im.counters) {
        MetricsEntry e;
        e.name = name;
        e.type = "counter";
        e.value = static_cast<double>(c->value());
        snap.entries.push_back(std::move(e));
    }
    for (const auto &[name, gg] : im.gauges) {
        MetricsEntry e;
        e.name = name;
        e.type = "gauge";
        e.value = gg->value();
        snap.entries.push_back(std::move(e));
    }
    for (const auto &[name, h] : im.histograms) {
        MetricsEntry e;
        e.name = name;
        e.type = "histogram";
        e.count = h->count();
        e.value = static_cast<double>(e.count);
        e.sumNs = h->sumNs();
        e.minNs = h->minNs();
        e.maxNs = h->maxNs();
        e.p50Ns = h->quantileNs(0.50);
        e.p90Ns = h->quantileNs(0.90);
        e.p99Ns = h->quantileNs(0.99);
        snap.entries.push_back(std::move(e));
    }
    std::sort(snap.entries.begin(), snap.entries.end(),
              [](const MetricsEntry &a, const MetricsEntry &b) {
                  return a.name < b.name;
              });
    return snap;
}

void
enableMetrics(bool on)
{
    if (on) {
        Registry &r = Registry::instance();
        for (const CatalogEntry &e : kCatalog) {
            switch (e.kind) {
              case 'c':
                r.counter(e.name);
                break;
              case 'g':
                r.gauge(e.name);
                break;
              default:
                r.histogram(e.name);
                break;
            }
        }
    }
    detail::gMetricsEnabled.store(on, std::memory_order_relaxed);
}

// -------------------------------------------------------------------
// Snapshot rendering
// -------------------------------------------------------------------

std::string
MetricsSnapshot::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"wsel_metrics\": 1,\n  \"instruments\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const MetricsEntry &e = entries[i];
        os << "    {\"name\": \"" << detail::jsonEscape(e.name)
           << "\", \"type\": \"" << e.type << "\"";
        if (e.type == "histogram") {
            os << ", \"count\": " << e.count
               << ", \"sum_ns\": " << e.sumNs
               << ", \"min_ns\": " << e.minNs
               << ", \"max_ns\": " << e.maxNs
               << ", \"p50_ns\": " << e.p50Ns
               << ", \"p90_ns\": " << e.p90Ns
               << ", \"p99_ns\": " << e.p99Ns;
        } else {
            os << ", \"value\": " << compactDouble(e.value);
        }
        os << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

std::string
MetricsSnapshot::toTable(std::string_view prefix) const
{
    auto selected = [&](const MetricsEntry &e) {
        return prefix.empty() ||
               std::string_view(e.name).substr(0, prefix.size()) ==
                   prefix;
    };
    std::size_t width = 6;
    for (const MetricsEntry &e : entries) {
        if (selected(e))
            width = std::max(width, e.name.size());
    }
    std::ostringstream os;
    os << "metric";
    os << std::string(width - 6 + 2, ' ') << "type       value\n";
    for (const MetricsEntry &e : entries) {
        if (!selected(e))
            continue;
        os << e.name
           << std::string(width - e.name.size() + 2, ' ');
        if (e.type == "histogram") {
            os << "histogram  count=" << e.count;
            if (e.count > 0) {
                os << " p50=" << humanNs(e.p50Ns)
                   << " p90=" << humanNs(e.p90Ns)
                   << " p99=" << humanNs(e.p99Ns)
                   << " max=" << humanNs(e.maxNs);
            }
        } else if (e.type == "counter") {
            os << "counter    " << compactDouble(e.value);
        } else {
            os << "gauge      " << compactDouble(e.value);
        }
        os << "\n";
    }
    return os.str();
}

// -------------------------------------------------------------------
// Conveniences
// -------------------------------------------------------------------

Counter &
counter(std::string_view name)
{
    return Registry::instance().counter(name);
}

Gauge &
gauge(std::string_view name)
{
    return Registry::instance().gauge(name);
}

LatencyHistogram &
histogram(std::string_view name)
{
    return Registry::instance().histogram(name);
}

MetricsSnapshot
metricsSnapshot()
{
    return Registry::instance().snapshot();
}

} // namespace wsel::obs
