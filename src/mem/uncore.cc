#include "mem/uncore.hh"

#include <algorithm>
#include <bit>

#include "stats/logging.hh"

namespace wsel
{

Uncore::Uncore(const UncoreConfig &cfg, std::uint32_t num_cores,
               std::uint64_t seed)
    : cfg_(cfg), numCores_(num_cores),
      llc_(cfg.llc, cfg.policy, seed, "llc"), coreStats_(num_cores)
{
    if (num_cores == 0)
        WSEL_FATAL("uncore needs at least one core");
    if (cfg.mshrs == 0 || cfg.writeBufferEntries == 0)
        WSEL_FATAL("uncore needs MSHRs and write-buffer entries");
    pageShift_ =
        std::countr_zero(static_cast<std::uint64_t>(cfg.pageBytes));
    xlate_.resize(static_cast<std::size_t>(num_cores) *
                  kXlateEntries);
    mshrs_.reserve(cfg.mshrs);
    writeBuffer_.reserve(cfg.writeBufferEntries);
    // Head off growth churn from first-touch allocation bursts; the
    // slot count is unobservable in results.
    pageSlots_.resize(4096);
    if (cfg.ipStridePrefetch)
        ipStride_.assign(num_cores,
                         IpStridePrefetcher(64, cfg.prefetchDegree));
    if (cfg.streamPrefetch)
        stream_.assign(num_cores,
                       StreamPrefetcher(8, cfg.prefetchDegree));
}

std::uint32_t
Uncore::hitLatency() const
{
    return cfg_.llcHitLatency;
}

const UncoreCoreStats &
Uncore::coreStats(std::uint32_t core_id) const
{
    WSEL_ASSERT(core_id < numCores_, "core id out of range");
    return coreStats_[core_id];
}

std::uint64_t
Uncore::translate(std::uint32_t core_id, std::uint64_t vaddr)
{
    const std::uint64_t vpn = vaddr >> pageShift_;
    // Key combines core and VPN: threads do not share pages.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(core_id) << 52) ^ vpn;
    XlateEntry &slot =
        xlate_[static_cast<std::size_t>(core_id) * kXlateEntries +
               (vpn & (kXlateEntries - 1))];
    std::uint64_t ppn;
    if (slot.key == key) {
        ppn = slot.ppn;
    } else {
        ppn = pageLookupOrAssign(key);
        slot.key = key;
        slot.ppn = ppn;
    }
    return (ppn << pageShift_) |
           (vaddr & (cfg_.pageBytes - 1));
}

std::uint64_t
Uncore::pageLookupOrAssign(std::uint64_t key)
{
    const std::size_t mask = pageSlots_.size() - 1;
    // Fibonacci hashing spreads the core/VPN key; linear probing
    // keeps collision runs on the same host cache lines.
    std::size_t idx =
        static_cast<std::size_t>(key * 0x9E3779B97F4A7C15ull);
    for (;; ++idx) {
        PageSlot &s = pageSlots_[idx & mask];
        if (s.ppn == kEmptyPage) {
            // First touch: allocate the next physical page (the
            // paper's BADCO "allocates a new physical page" on a
            // page miss).
            const std::uint64_t ppn = nextPpn_++;
            s.key = key;
            s.ppn = ppn;
            if (++pageCount_ * 4 > pageSlots_.size() * 3)
                growPageTable();
            return ppn;
        }
        if (s.key == key)
            return s.ppn;
    }
}

void
Uncore::growPageTable()
{
    std::vector<PageSlot> old = std::move(pageSlots_);
    pageSlots_.assign(old.size() * 2, PageSlot{});
    const std::size_t mask = pageSlots_.size() - 1;
    for (const PageSlot &s : old) {
        if (s.ppn == kEmptyPage)
            continue;
        std::size_t idx = static_cast<std::size_t>(
            s.key * 0x9E3779B97F4A7C15ull);
        while (pageSlots_[idx & mask].ppn != kEmptyPage)
            ++idx;
        pageSlots_[idx & mask] = s;
    }
}

std::uint64_t
Uncore::busTransfer(std::uint64_t earliest)
{
    const std::uint64_t start = std::max(earliest, fsbNextFree_);
    fsbNextFree_ = start + cfg_.fsbCyclesPerTransfer;
    fsbBusy_ += cfg_.fsbCyclesPerTransfer;
    return start;
}

void
Uncore::expireMshrs(std::uint64_t now)
{
    if (mshrMin_ > now)
        return; // no entry can have completed: nothing to erase
    // Stable one-pass compaction (same surviving order as
    // erase_if) that recomputes the minimum as it goes.
    std::uint64_t min = UINT64_MAX;
    std::uint64_t lines = 0;
    std::size_t n = 0;
    for (const Mshr &m : mshrs_) {
        if (m.completion > now) {
            mshrs_[n++] = m;
            min = std::min(min, m.completion);
            lines |= mshrFilterBit(m.lineAddr);
        }
    }
    mshrs_.resize(n);
    mshrMin_ = min;
    mshrLines_ = lines;
}

std::uint64_t
Uncore::missPath(std::uint64_t start, std::uint64_t paddr,
                 bool is_write, bool is_prefetch)
{
    const std::uint64_t line = llc_.lineAddr(paddr);

    // MSHR merge: an outstanding miss to the same line completes
    // both requests at once.
    expireMshrs(start);
    if (mshrLines_ & mshrFilterBit(line)) {
        for (const Mshr &m : mshrs_) {
            if (m.lineAddr == line)
                return m.completion;
        }
    }

    // MSHR structural hazard: wait for the earliest completion
    // (the cached minimum — the value the old full scan computed).
    std::uint64_t t = start;
    if (mshrs_.size() >= cfg_.mshrs) {
        t = std::max(t, mshrMin_);
        expireMshrs(t);
    }

    // Fetch the line: FSB request + DRAM access + FSB transfer.
    const std::uint64_t bus_start = busTransfer(t);
    const std::uint64_t completion =
        bus_start + cfg_.dramLatency + cfg_.fsbCyclesPerTransfer;

    mshrs_.push_back(Mshr{line, completion});
    mshrMin_ = std::min(mshrMin_, completion);
    mshrLines_ |= mshrFilterBit(line);

    // Fill the LLC now (tag state is updated in request order).
    // Every caller observed the miss with no intervening fill, so
    // the tag scan inside access() is skipped.
    const Cache::Result fill =
        llc_.missFill(paddr, is_write, is_prefetch);
    if (fill.evicted.valid && fill.evicted.dirty) {
        // The dirty victim leaves eagerly through the write buffer:
        // it may use the FSB as soon as a buffer slot and the bus
        // are free (it must not wait for the fill to return, or the
        // single bus timeline would block for a full DRAM round
        // trip per eviction).
        std::uint64_t wb_start = t;
        std::erase_if(writeBuffer_, [wb_start](std::uint64_t c) {
            return c <= wb_start;
        });
        if (writeBuffer_.size() >= cfg_.writeBufferEntries) {
            std::uint64_t earliest = UINT64_MAX;
            for (std::uint64_t c : writeBuffer_)
                earliest = std::min(earliest, c);
            wb_start = std::max(wb_start, earliest);
            std::erase_if(writeBuffer_,
                          [wb_start](std::uint64_t c) {
                              return c <= wb_start;
                          });
        }
        const std::uint64_t wb_done =
            busTransfer(wb_start) + cfg_.fsbCyclesPerTransfer;
        writeBuffer_.push_back(wb_done);
    }
    return completion;
}

std::uint64_t
Uncore::access(std::uint64_t cycle, std::uint32_t core_id,
               std::uint64_t vaddr, bool is_write, std::uint64_t pc,
               bool is_prefetch)
{
    WSEL_ASSERT(core_id < numCores_, "core id out of range");
    UncoreCoreStats &cs = coreStats_[core_id];
    if (!is_prefetch) {
        if (is_write)
            ++cs.writes;
        else
            ++cs.reads;
    }

    const std::uint64_t paddr = translate(core_id, vaddr);

    // One request occupies the LLC port per cycle.
    const std::uint64_t start = std::max(cycle, portNextFree_);
    portNextFree_ = start + 1;

    // Hit-side effects in one tag scan; the miss path defers its
    // accounting to missFill() (an MSHR-merged miss is never
    // accounted).
    const bool hit = llc_.accessIfHit(paddr, is_write, is_prefetch);

    std::uint64_t completion;
    if (hit) {
        completion = start + cfg_.llcHitLatency;
        // The tags fill at request time, so a "hit" may target a
        // line whose data is still in flight: wait for its MSHR.
        const std::uint64_t line = llc_.lineAddr(paddr);
        if (mshrLines_ & mshrFilterBit(line)) {
            for (const Mshr &m : mshrs_) {
                if (m.lineAddr == line)
                    completion = std::max(completion, m.completion);
            }
        }
    } else {
        if (!is_prefetch)
            ++cs.demandMisses;
        completion = missPath(start + cfg_.llcHitLatency, paddr,
                              is_write, is_prefetch);
    }

    // Core prefetches train the LLC prefetchers like demand traffic;
    // their own proposals are not re-observed.
    if (!is_prefetch) {
        cs.totalDemandLatency += completion - cycle;
        maybePrefetch(start, core_id, pc, paddr, !hit);
    }
    return completion;
}

void
Uncore::maybePrefetch(std::uint64_t start, std::uint32_t core_id,
                      std::uint64_t pc, std::uint64_t paddr,
                      bool was_miss)
{
    prefetchScratch_.clear();
    std::vector<std::uint64_t> &proposals = prefetchScratch_;
    const std::uint64_t seen = llc_.lineAddr(paddr);
    // Ip-stride proposals first, then stream: one composite order.
    if (!ipStride_.empty())
        ipStride_[core_id].observe(pc, seen, was_miss, proposals);
    if (!stream_.empty())
        stream_[core_id].observe(pc, seen, was_miss, proposals);

    for (std::uint64_t line : proposals) {
        const std::uint64_t byte_addr = line * cfg_.llc.lineBytes;
        if (llc_.probe(byte_addr))
            continue;
        missPath(start + cfg_.llcHitLatency, byte_addr, false, true);
    }
}

void
Uncore::writeback(std::uint64_t cycle, std::uint32_t core_id,
                  std::uint64_t vaddr)
{
    WSEL_ASSERT(core_id < numCores_, "core id out of range");
    ++coreStats_[core_id].writebacksIn;

    const std::uint64_t paddr = translate(core_id, vaddr);
    const std::uint64_t start = std::max(cycle, portNextFree_);
    portNextFree_ = start + 1;

    const Cache::Result r = llc_.writeback(paddr);
    if (!r.hit && r.evicted.valid && r.evicted.dirty) {
        const std::uint64_t wb_done =
            busTransfer(start) + cfg_.fsbCyclesPerTransfer;
        writeBuffer_.push_back(wb_done);
        if (writeBuffer_.size() > cfg_.writeBufferEntries)
            writeBuffer_.erase(writeBuffer_.begin());
    }
}

} // namespace wsel
