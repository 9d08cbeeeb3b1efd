#include "cache/cache.hh"

#include <algorithm>
#include <bit>

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

namespace
{

/** @p geom, checked before the constructor sizes a policy by it. */
const CacheGeometry &
validated(const CacheGeometry &geom)
{
    geom.validate();
    return geom;
}

} // namespace

Cache::Cache(const CacheGeometry &geom, PolicyKind policy,
             std::uint64_t seed, std::string name,
             const DuelingConfig &tunables)
    : geom_(validated(geom)), name_(std::move(name)), kind_(policy),
      seed_(seed), tunables_(tunables),
      policy_(makePolicy(policy, geom_.sets(), geom_.ways, seed,
                         tunables))
{
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(geom_.lineBytes)));
    setMask_ = geom_.sets() - 1;
    const std::size_t n =
        static_cast<std::size_t>(geom_.sets()) * geom_.ways;
    tags_.assign(n, 0);
    dirty_.assign(n, 0);
}

Cache::Result
Cache::writeback(std::uint64_t byte_addr)
{
    const std::uint64_t la = lineAddr(byte_addr);
    const std::size_t b = base(la);
    const std::uint32_t w =
        tagscan::find(&tags_[b], geom_.ways, tagFor(la));
    if (w < geom_.ways) {
        dirty_[b + w] = 1;
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
    policy_ = makePolicy(kind_, geom_.sets(), geom_.ways, seed_,
                         tunables_);
    stats_ = CacheStats{};
}

} // namespace wsel
