/**
 * @file
 * The shared uncore: LLC + write buffer + MSHRs + FSB + DRAM, plus a
 * first-touch page allocator, behind a timing interface shared by the
 * detailed and the approximate core models (the paper stresses that
 * "BADCO and Zesto use the exact same uncore model").
 *
 * Timing is request-driven: a caller presents a request at a core
 * cycle and receives the completion cycle. Shared-resource
 * contention (LLC port, MSHRs, FSB bandwidth) is modelled with
 * next-free-cycle bookkeeping, which approximates the paper's
 * round-robin arbitration with first-come-first-served order.
 */

#ifndef WSEL_MEM_UNCORE_HH
#define WSEL_MEM_UNCORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/prefetcher.hh"
#include "mem/uncore_config.hh"

namespace wsel
{

/** Per-core uncore counters. */
struct UncoreCoreStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t writebacksIn = 0;
    std::uint64_t totalDemandLatency = 0; ///< sum of request latencies

    /** Mean demand-request latency in cycles. */
    double
    meanDemandLatency() const
    {
        const std::uint64_t n = reads + writes;
        return n ? static_cast<double>(totalDemandLatency) /
                       static_cast<double>(n)
                 : 0.0;
    }
};

/**
 * Abstract uncore seen by a core model: request in, completion
 * cycle out.
 */
class UncoreIf
{
  public:
    virtual ~UncoreIf() = default;

    /**
     * A demand request from core @p core_id (an L1 miss).
     *
     * @param cycle Core cycle at which the request leaves the core.
     * @param core_id Requesting core.
     * @param vaddr Virtual byte address.
     * @param is_write True for a store-miss refill.
     * @param pc PC of the triggering instruction (prefetch training).
     * @param is_prefetch Request issued by an L1 prefetcher.
     * @return Cycle at which the data is available to the core.
     */
    virtual std::uint64_t access(std::uint64_t cycle,
                                 std::uint32_t core_id,
                                 std::uint64_t vaddr, bool is_write,
                                 std::uint64_t pc,
                                 bool is_prefetch = false) = 0;

    /**
     * A dirty L1 eviction pushed down to the uncore
     * (fire-and-forget; does not stall the core).
     */
    virtual void writeback(std::uint64_t cycle, std::uint32_t core_id,
                           std::uint64_t vaddr) = 0;

    /** Latency of the fastest possible (LLC-hit) access. */
    virtual std::uint32_t hitLatency() const = 0;
};

/**
 * Ideal uncore where every request hits in the LLC. Used to build
 * BADCO behavioural models (intrinsic core time between requests)
 * and as a timing bound in tests.
 */
class PerfectUncore : public UncoreIf
{
  public:
    explicit PerfectUncore(std::uint32_t hit_latency)
        : hitLatency_(hit_latency)
    {}

    std::uint64_t
    access(std::uint64_t cycle, std::uint32_t, std::uint64_t, bool,
           std::uint64_t, bool) override
    {
        return cycle + hitLatency_;
    }

    void
    writeback(std::uint64_t, std::uint32_t, std::uint64_t) override
    {}

    std::uint32_t hitLatency() const override { return hitLatency_; }

  private:
    const std::uint32_t hitLatency_;
};

/**
 * The real shared uncore. final so callers holding a concrete
 * Uncore (the batched cell engine's per-cell instances) get
 * devirtualized access()/writeback() calls in their hot loops.
 */
class Uncore final : public UncoreIf
{
  public:
    /**
     * @param cfg Uncore parameters (Table II).
     * @param num_cores Number of attached cores.
     * @param seed Determinism seed (randomized policies, dueling).
     */
    Uncore(const UncoreConfig &cfg, std::uint32_t num_cores,
           std::uint64_t seed);

    std::uint64_t access(std::uint64_t cycle, std::uint32_t core_id,
                         std::uint64_t vaddr, bool is_write,
                         std::uint64_t pc,
                         bool is_prefetch = false) override;

    void writeback(std::uint64_t cycle, std::uint32_t core_id,
                   std::uint64_t vaddr) override;

    std::uint32_t hitLatency() const override;

    /** Per-core counters. */
    const UncoreCoreStats &coreStats(std::uint32_t core_id) const;

    /** LLC counters. */
    const CacheStats &llcStats() const { return llc_.stats(); }

    /** Total cycles the FSB was occupied. */
    std::uint64_t fsbBusyCycles() const { return fsbBusy_; }

    const UncoreConfig &config() const { return cfg_; }
    std::uint32_t numCores() const { return numCores_; }

  private:
    /** Translate with first-touch page allocation. */
    std::uint64_t translate(std::uint32_t core_id,
                            std::uint64_t vaddr);

    /** Occupy the FSB for one line transfer from @p earliest. */
    std::uint64_t busTransfer(std::uint64_t earliest);

    /** Handle an LLC miss: DRAM fetch + fill + possible eviction. */
    std::uint64_t missPath(std::uint64_t start, std::uint64_t paddr,
                           bool is_write, bool is_prefetch);

    /** Run prefetchers after a demand access. */
    void maybePrefetch(std::uint64_t start, std::uint32_t core_id,
                       std::uint64_t pc, std::uint64_t paddr,
                       bool was_miss);

    /** Drop completed entries from the MSHR list. */
    void expireMshrs(std::uint64_t now);

    const UncoreConfig cfg_;
    const std::uint32_t numCores_;

    Cache llc_;

    /**
     * First-touch page table: (core, vpn) -> ppn as an
     * open-addressing linear-probe table.  The mapping is identical
     * to a node-based hash map — ppn still counts first touches in
     * request order — but a lookup is one multiplicative hash plus
     * a short probe run over a contiguous slot array instead of a
     * bucket-chain pointer chase, and growth never allocates per
     * page.  A slot with ppn == kEmptyPage is free (ppns count up
     * from 1 and can never reach the sentinel).
     */
    struct PageSlot
    {
        std::uint64_t key = 0;
        std::uint64_t ppn = kEmptyPage;
    };
    static constexpr std::uint64_t kEmptyPage = UINT64_MAX;
    std::uint64_t pageLookupOrAssign(std::uint64_t key);
    void growPageTable();
    std::vector<PageSlot> pageSlots_;
    std::size_t pageCount_ = 0;
    std::uint64_t nextPpn_ = 1;
    std::uint64_t pageShift_ = 12;

    /**
     * Per-core direct-mapped translation cache (indexed by low VPN
     * bits): working sets touch a handful of pages between misses,
     * so this skips the page-table hash on the vast majority of
     * requests. Pure cache — the (core, vpn) -> ppn mapping is
     * immutable once created, so any hit is exact.
     */
    static constexpr std::uint32_t kXlateEntries = 512;
    struct XlateEntry
    {
        std::uint64_t key = UINT64_MAX;
        std::uint64_t ppn = 0;
    };
    std::vector<XlateEntry> xlate_;

    /** LLC port: accepts one request per cycle. */
    std::uint64_t portNextFree_ = 0;

    /** FSB: busy until this cycle. */
    std::uint64_t fsbNextFree_ = 0;
    std::uint64_t fsbBusy_ = 0;

    /** Outstanding misses: line address -> completion cycle. */
    struct Mshr
    {
        std::uint64_t lineAddr;
        std::uint64_t completion;
    };
    std::vector<Mshr> mshrs_;

    /**
     * Min completion over mshrs_ (UINT64_MAX when empty): lets
     * expireMshrs() skip its scan while nothing can have completed
     * — the erased set is unchanged, since no entry's completion
     * can precede the minimum.
     */
    std::uint64_t mshrMin_ = UINT64_MAX;

    /** Pending write buffer slots: completion cycles. */
    std::vector<std::uint64_t> writeBuffer_;

    /** Per-core prefetchers. */
    std::vector<std::unique_ptr<Prefetcher>> prefetchers_;

    /** Reused proposal buffer for maybePrefetch(). */
    std::vector<std::uint64_t> prefetchScratch_;

    std::vector<UncoreCoreStats> coreStats_;
};

} // namespace wsel

#endif // WSEL_MEM_UNCORE_HH
