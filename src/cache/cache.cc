#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "cache/tagscan.hh"
#include "stats/logging.hh"

namespace wsel
{

std::uint32_t
CacheGeometry::sets() const
{
    return static_cast<std::uint32_t>(
        sizeBytes / (static_cast<std::uint64_t>(ways) * lineBytes));
}

void
CacheGeometry::validate() const
{
    if (lineBytes == 0 || !std::has_single_bit(lineBytes))
        WSEL_FATAL("cache line size " << lineBytes
                                      << " is not a power of two");
    if (ways == 0)
        WSEL_FATAL("cache associativity cannot be zero");
    const std::uint64_t line_capacity =
        static_cast<std::uint64_t>(ways) * lineBytes;
    if (sizeBytes == 0 || sizeBytes % line_capacity != 0)
        WSEL_FATAL("cache size " << sizeBytes
                                 << " not divisible by ways*line ("
                                 << line_capacity << ")");
    const std::uint32_t s = sets();
    if (s == 0 || !std::has_single_bit(s))
        WSEL_FATAL("cache set count " << s
                                      << " is not a power of two");
}

Cache::Cache(const CacheGeometry &geom, PolicyKind policy,
             std::uint64_t seed, std::string name)
    : Cache(geom,
            [geom, policy, seed]() {
                return makePolicy(policy, geom.sets(), geom.ways,
                                  seed);
            },
            std::move(name))
{}

Cache::Cache(const CacheGeometry &geom, PolicyFactory factory,
             std::string name)
    : geom_(geom), name_(std::move(name)),
      factory_(std::move(factory))
{
    geom_.validate();
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(geom_.lineBytes)));
    setMask_ = geom_.sets() - 1;
    const std::size_t n =
        static_cast<std::size_t>(geom_.sets()) * geom_.ways;
    tags_.assign(n, 0);
    dirty_.assign(n, 0);
    policy_ = factory_();
    if (!policy_)
        WSEL_FATAL("policy factory returned null for cache '"
                   << name_ << "'");
    if (policy_->sets() != geom_.sets() ||
        policy_->ways() != geom_.ways)
        WSEL_FATAL("policy shape " << policy_->sets() << "x"
                   << policy_->ways() << " does not match cache '"
                   << name_ << "'");
}

std::uint32_t
Cache::setIndex(std::uint64_t line_addr) const
{
    return static_cast<std::uint32_t>(line_addr) & setMask_;
}

Cache::Result
Cache::access(std::uint64_t byte_addr, bool is_write,
              bool is_prefetch)
{
    const std::uint64_t la = lineAddr(byte_addr);
    const std::uint32_t set = setIndex(la);
    const std::size_t base =
        static_cast<std::size_t>(set) * geom_.ways;
    const std::uint32_t *tags = &tags_[base];
    const std::uint32_t want = tagFor(la);

    if (is_prefetch)
        ++stats_.prefetchAccesses;
    else
        ++stats_.demandAccesses;

    const std::uint32_t w = tagscan::find(tags, geom_.ways, want);
    if (w < geom_.ways) {
        policy_->onHit(set, w);
        if (is_write)
            dirty_[base + w] = 1;
        if (is_prefetch)
            ++stats_.prefetchHits;
        else
            ++stats_.demandHits;
        return Result{true, {}};
    }

    if (is_prefetch)
        ++stats_.prefetchMisses;
    else
        ++stats_.demandMisses;
    policy_->onMiss(set);
    return fill(la, is_write);
}

Cache::Result
Cache::fill(std::uint64_t line_addr, bool is_write)
{
    const std::uint32_t set = setIndex(line_addr);
    const std::size_t base =
        static_cast<std::size_t>(set) * geom_.ways;
    std::uint32_t *tags = &tags_[base];

    // Lowest invalid way (tag 0), if any; all tagscan paths agree
    // on the lowest-index pick, keeping replacement path-invariant.
    std::uint32_t victim = tagscan::find(tags, geom_.ways, 0u);
    Result res;
    res.hit = false;
    if (victim == geom_.ways) {
        victim = policy_->selectVictim(set);
        WSEL_ASSERT(victim < geom_.ways,
                    "policy returned way " << victim);
        const std::uint64_t old_la = tags[victim] >> 1;
        if (dirty_[base + victim]) {
            res.evicted = Evicted{true, true, old_la};
            ++stats_.writebacksOut;
        } else {
            res.evicted = Evicted{true, false, old_la};
        }
    }
    tags[victim] = tagFor(line_addr);
    dirty_[base + victim] = is_write ? 1 : 0;
    policy_->onFill(set, victim);
    return res;
}

bool
Cache::accessIfHit(std::uint64_t byte_addr, bool is_write,
                   bool is_prefetch)
{
    const std::uint64_t la = lineAddr(byte_addr);
    const std::uint32_t set = setIndex(la);
    const std::size_t base =
        static_cast<std::size_t>(set) * geom_.ways;
    const std::uint32_t w =
        tagscan::find(&tags_[base], geom_.ways, tagFor(la));
    if (w == geom_.ways)
        return false;
    if (is_prefetch) {
        ++stats_.prefetchAccesses;
        ++stats_.prefetchHits;
    } else {
        ++stats_.demandAccesses;
        ++stats_.demandHits;
    }
    policy_->onHit(set, w);
    if (is_write)
        dirty_[base + w] = 1;
    return true;
}

Cache::Result
Cache::missFill(std::uint64_t byte_addr, bool is_write,
                bool is_prefetch)
{
    const std::uint64_t la = lineAddr(byte_addr);
    if (is_prefetch) {
        ++stats_.prefetchAccesses;
        ++stats_.prefetchMisses;
    } else {
        ++stats_.demandAccesses;
        ++stats_.demandMisses;
    }
    policy_->onMiss(setIndex(la));
    return fill(la, is_write);
}

bool
Cache::probe(std::uint64_t byte_addr) const
{
    const std::uint64_t la = lineAddr(byte_addr);
    const std::uint32_t set = setIndex(la);
    const std::uint32_t *tags =
        &tags_[static_cast<std::size_t>(set) * geom_.ways];
    const std::uint32_t want = tagFor(la);
    return tagscan::find(tags, geom_.ways, want) < geom_.ways;
}

Cache::Result
Cache::writeback(std::uint64_t byte_addr)
{
    const std::uint64_t la = lineAddr(byte_addr);
    const std::uint32_t set = setIndex(la);
    const std::size_t base =
        static_cast<std::size_t>(set) * geom_.ways;
    const std::uint32_t *tags = &tags_[base];
    const std::uint32_t want = tagFor(la);
    const std::uint32_t w = tagscan::find(tags, geom_.ways, want);
    if (w < geom_.ways) {
        dirty_[base + w] = 1;
        // Writebacks do not update replacement state: they are
        // not program references.
        return Result{true, {}};
    }
    return fill(la, true);
}

void
Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    policy_ = factory_();
    stats_ = CacheStats{};
}

} // namespace wsel
