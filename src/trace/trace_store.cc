#include "trace/trace_store.hh"

#include <cstdint>
#include <cstdlib>
#include <string>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/logging.hh"

namespace wsel
{

// -------------------------------------------------------------------
// TraceStream
// -------------------------------------------------------------------

TraceStream::TraceStream(TraceStore &store,
                         const BenchmarkProfile &profile,
                         std::uint32_t chunk_uops)
    : store_(store), profile_(profile), chunkUops_(chunk_uops),
      gen_(profile_)
{
    WSEL_ASSERT(chunkUops_ > 0, "chunk size must be positive");
    // checkpoints_[0]: the pristine state at µop 0.
    checkpoints_.push_back(gen_.saveState());
}

std::shared_ptr<TraceChunk>
TraceStream::buildOne()
{
    static obs::Counter &built =
        obs::counter("trace_store.chunks_built");
    static obs::LatencyHistogram &build_ns =
        obs::histogram("trace_store.build_ns");
    obs::Span span("trace_store.build",
                   "{\"bench\":\"" + profile_.name + "\"}");
    obs::LatencyHistogram::Timer timer(build_ns);

    auto c = std::make_shared<TraceChunk>();
    c->firstUop = gen_.generated();
    c->count = chunkUops_;
    c->kind.reserve(chunkUops_);
    c->addr.reserve(chunkUops_);
    c->pc.reserve(chunkUops_);
    c->dep1.reserve(chunkUops_);
    c->dep2.reserve(chunkUops_);
    c->latency.reserve(chunkUops_);
    c->taken.reserve(chunkUops_);
    for (std::uint32_t i = 0; i < chunkUops_; ++i) {
        const MicroOp &u = gen_.next();
        c->kind.push_back(static_cast<std::uint8_t>(u.kind));
        c->addr.push_back(u.addr);
        c->pc.push_back(u.pc);
        c->dep1.push_back(u.dep1);
        c->dep2.push_back(u.dep2);
        c->latency.push_back(u.latency);
        c->taken.push_back(u.taken ? 1 : 0);
    }
    built.inc();
    builds_.fetch_add(1, std::memory_order_relaxed);
    return c;
}

std::shared_ptr<const TraceChunk>
TraceStream::chunk(std::uint64_t idx)
{
    if (auto sp = store_.lookup(*this, idx))
        return sp;

    // Builds are serialized per stream: chunk i+1 needs the
    // generator state after chunk i, so concurrent cold-starters
    // queue here and re-check — each chunk is built exactly once.
    std::lock_guard<std::mutex> build_lock(buildMu_);
    if (auto sp = store_.lookup(*this, idx))
        return sp;

    // Chunks 0..checkpoints_.size()-2 have been built before (a
    // checkpoint marks each completed boundary): restoring the
    // chunk's own checkpoint regenerates it alone. Beyond the
    // frontier, extend from the last checkpoint, installing every
    // intermediate chunk on the way.
    const std::uint64_t frontier = checkpoints_.size() - 1;
    std::shared_ptr<const TraceChunk> out;
    if (idx < frontier) {
        gen_.restoreState(checkpoints_[idx]);
        auto c = buildOne();
        out = c;
        store_.install(*this, idx, std::move(c));
    } else {
        gen_.restoreState(checkpoints_[frontier]);
        for (std::uint64_t i = frontier; i <= idx; ++i) {
            auto c = buildOne();
            checkpoints_.push_back(gen_.saveState());
            if (i == idx)
                out = c;
            store_.install(*this, i, std::move(c));
        }
    }
    return out;
}

// -------------------------------------------------------------------
// TraceCursor
// -------------------------------------------------------------------

void
TraceCursor::refill()
{
    WSEL_ASSERT(stream_ != nullptr,
                "cursor is not attached to a stream");
    const std::uint32_t cu = stream_->chunkUops();
    chunk_ = stream_->chunk(pos_ / cu);
    kind_ = chunk_->kind.data();
    addr_ = chunk_->addr.data();
    pc_ = chunk_->pc.data();
    dep1_ = chunk_->dep1.data();
    dep2_ = chunk_->dep2.data();
    latency_ = chunk_->latency.data();
    taken_ = chunk_->taken.data();
    idx_ = static_cast<std::uint32_t>(pos_ % cu);
    count_ = chunk_->count;
}

void
TraceCursor::dropChunk()
{
    chunk_.reset();
    kind_ = nullptr;
    addr_ = nullptr;
    pc_ = nullptr;
    dep1_ = nullptr;
    dep2_ = nullptr;
    latency_ = nullptr;
    taken_ = nullptr;
    idx_ = 0;
    count_ = 0;
}

// -------------------------------------------------------------------
// BatchPin
// -------------------------------------------------------------------

void
BatchPin::pin(TraceStore &store, const BenchmarkProfile &profile,
              std::uint64_t uops)
{
    static obs::Counter &pins_saved =
        obs::counter("batch.chunk_pins_saved");
    WSEL_ASSERT(!store_ || store_ == &store,
                "one BatchPin cannot span two stores");
    store_ = &store;
    if (uops == 0)
        return;
    auto s = store.stream(profile);
    const std::uint64_t last = (uops - 1) / s->chunkUops();
    for (std::uint64_t i = 0; i <= last; ++i) {
        std::shared_ptr<const TraceChunk> c = s->chunk(i);
        if (seen_.insert(c.get()).second) {
            chunks_.push_back(std::move(c));
        } else {
            ++saved_;
            pins_saved.inc();
        }
    }
}

void
BatchPin::release()
{
    if (chunks_.empty() && !store_)
        return;
    chunks_.clear();
    seen_.clear();
    saved_ = 0;
    if (store_) {
        // Pins may have held the store over budget; converge now.
        store_->trimToBudget();
        store_ = nullptr;
    }
}

// -------------------------------------------------------------------
// TraceStore
// -------------------------------------------------------------------

TraceStore::TraceStore(std::size_t budget_bytes,
                       std::uint32_t chunk_uops)
    : budgetBytes_(budget_bytes), chunkUops_(chunk_uops)
{
    WSEL_ASSERT(chunk_uops > 0, "chunk size must be positive");
}

TraceStore &
TraceStore::global()
{
    static TraceStore *g = [] {
        std::size_t budget = kDefaultBudgetBytes;
        if (const char *env = std::getenv("WSEL_TRACE_MEM")) {
            char *end = nullptr;
            const unsigned long long mib =
                std::strtoull(env, &end, 10);
            if (end != env && *end == '\0') {
                budget = static_cast<std::size_t>(mib) << 20;
            } else {
                warn("ignoring invalid WSEL_TRACE_MEM '" +
                     std::string(env) + "' (want MiB)");
            }
        }
        // Leaked on purpose: bench static destructors may still
        // hold cursors at exit (same idiom as the obs registry).
        return new TraceStore(budget);
    }();
    return *g;
}

std::shared_ptr<TraceStream>
TraceStore::stream(const BenchmarkProfile &profile)
{
    const std::uint64_t key = profile.parameterHash();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_.find(key);
    if (it != streams_.end())
        return it->second;
    auto s = std::make_shared<TraceStream>(
        *this, profile,
        chunkUops_.load(std::memory_order_relaxed));
    streams_.emplace(key, s);
    return s;
}

void
TraceStore::ensureBuilt(const BenchmarkProfile &profile,
                        std::uint64_t uops)
{
    if (uops == 0)
        return;
    auto s = stream(profile);
    const std::uint64_t last = (uops - 1) / s->chunkUops();
    for (std::uint64_t i = 0; i <= last; ++i)
        s->chunk(i);
}

void
TraceStore::setBudgetBytes(std::size_t bytes)
{
    budgetBytes_.store(bytes, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    evictLocked(nullptr);
}

void
TraceStore::setChunkUops(std::uint32_t uops)
{
    WSEL_ASSERT(uops > 0, "chunk size must be positive");
    chunkUops_.store(uops, std::memory_order_relaxed);
}

std::size_t
TraceStore::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return residentBytes_;
}

void
TraceStore::trimToBudget()
{
    static obs::Gauge &resident =
        obs::gauge("trace_store.resident_bytes");
    std::lock_guard<std::mutex> lock(mu_);
    evictLocked(nullptr);
    resident.set(static_cast<double>(residentBytes_));
}

void
TraceStore::clear()
{
    static obs::Gauge &resident =
        obs::gauge("trace_store.resident_bytes");
    std::lock_guard<std::mutex> lock(mu_);
    streams_.clear();
    residentBytes_ = 0;
    resident.set(0);
}

std::shared_ptr<const TraceChunk>
TraceStore::lookup(TraceStream &s, std::uint64_t idx)
{
    static obs::Counter &hits =
        obs::counter("trace_store.chunk_hits");
    std::lock_guard<std::mutex> lock(mu_);
    if (idx < s.entries_.size() && s.entries_[idx].chunk) {
        s.entries_[idx].lastUse = ++tick_;
        hits.inc();
        return s.entries_[idx].chunk;
    }
    return nullptr;
}

void
TraceStore::install(TraceStream &s, std::uint64_t idx,
                    std::shared_ptr<const TraceChunk> chunk)
{
    static obs::Gauge &resident =
        obs::gauge("trace_store.resident_bytes");
    std::lock_guard<std::mutex> lock(mu_);
    if (idx >= s.entries_.size())
        s.entries_.resize(idx + 1);
    TraceStream::Entry &e = s.entries_[idx];
    if (e.chunk)
        return; // already resident (benign rebuild race)
    residentBytes_ += chunk->bytes();
    e.chunk = std::move(chunk);
    e.lastUse = ++tick_;
    evictLocked(&e);
    resident.set(static_cast<double>(residentBytes_));
}

void
TraceStore::evictLocked(const TraceStream::Entry *keep)
{
    static obs::Counter &evicted =
        obs::counter("trace_store.chunks_evicted");
    const std::size_t budget =
        budgetBytes_.load(std::memory_order_relaxed);
    while (residentBytes_ > budget) {
        TraceStream::Entry *lru = nullptr;
        for (auto &kv : streams_) {
            for (TraceStream::Entry &e : kv.second->entries_) {
                // use_count > 1 means a cursor or BatchPin still
                // holds the chunk: evicting it would keep the
                // memory alive through that reader while
                // un-charging it from the budget, and force a
                // pointless rebuild for the next reader. Pinned
                // chunks are therefore ineligible; the budget
                // converges when the pins release (trimToBudget).
                if (e.chunk && &e != keep &&
                    e.chunk.use_count() == 1 &&
                    (!lru || e.lastUse < lru->lastUse))
                    lru = &e;
            }
        }
        if (!lru)
            break; // everything left is pinned
        residentBytes_ -= lru->chunk->bytes();
        lru->chunk.reset();
        evicted.inc();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

} // namespace wsel
