/**
 * @file
 * Cycle-level out-of-order core model (the "Zesto" role in the
 * paper's methodology: the slow, detailed reference simulator).
 *
 * The core executes a deterministic µop trace through a modelled
 * pipeline: TAGE-predicted fetch with IL1/ITLB, decode buffer,
 * dispatch into ROB/RS/LDQ/STQ, dependence-driven out-of-order issue
 * with issue-width and RS limits, DL1 with MSHRs and prefetchers,
 * store writes at commit, and in-order commit. All memory requests
 * below the L1s go to a shared UncoreIf.
 */

#ifndef WSEL_CPU_DETAILED_CORE_HH
#define WSEL_CPU_DETAILED_CORE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/cache.hh"
#include "cache/prefetcher.hh"
#include "cache/tlb.hh"
#include "cpu/core_config.hh"
#include "cpu/core_observer.hh"
#include "cpu/tage.hh"
#include "mem/uncore.hh"
#include "trace/trace_store.hh"

namespace wsel
{

/** Counters exposed by a DetailedCore. */
struct CoreStats
{
    std::uint64_t committed = 0;
    std::uint64_t cycles = 0;          ///< cycles this core was ticked
    std::uint64_t cyclesToTarget = 0;  ///< cycle the target committed
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t dl1Misses = 0;
    std::uint64_t il1Misses = 0;
    std::uint64_t dtlbMisses = 0;
    std::uint64_t itlbMisses = 0;
    std::uint64_t uncoreLoads = 0;
    std::uint64_t uncoreStores = 0;
    std::uint64_t uncorePrefetches = 0;
    std::uint64_t uncoreWritebacks = 0;

    /** IPC over the first cyclesToTarget cycles. */
    double ipc(std::uint64_t target_uops) const;
};

/**
 * One detailed out-of-order core attached to a shared uncore.
 */
class DetailedCore
{
  public:
    /**
     * @param cfg Core parameters (Table I).
     * @param trace Cursor over the µop stream to execute (from
     *        TraceStore; moved into the core).
     * @param uncore Shared uncore (owned by the caller).
     * @param core_id This core's index at the uncore.
     * @param target_uops Commit count after which IPC is frozen and
     *        the thread restarts (paper Section IV-A).
     * @param seed Determinism seed (predictor allocation, policies).
     */
    DetailedCore(const CoreConfig &cfg, TraceCursor trace,
                 UncoreIf &uncore, std::uint32_t core_id,
                 std::uint64_t target_uops, std::uint64_t seed);

    /** Attach an observer of emitted uncore requests (may be null). */
    void setObserver(CoreObserver *obs) { observer_ = obs; }

    /** Advance one cycle; @p now must increase monotonically. */
    void tick(std::uint64_t now);

    /** True once target_uops µops have committed. */
    bool reachedTarget() const { return stats_.cyclesToTarget != 0; }

    /**
     * Earliest future cycle (> @p now) at which this core could make
     * progress.  Ticking the core at an earlier cycle changes
     * nothing but stats().cycles, so runToTarget() skips it.
     */
    std::uint64_t nextEventCycle(std::uint64_t now) const;

    const CoreStats &stats() const { return stats_; }
    const CoreConfig &config() const { return cfg_; }
    std::uint32_t coreId() const { return coreId_; }

    /** IPC over the first target_uops committed µops. */
    double ipc() const { return stats_.ipc(targetUops_); }

  private:
    friend void runToTarget(std::span<DetailedCore *const> cores);

    /**
     * The cycle runToTarget()'s clock advances to once a core has
     * finished: @p next (= nextEventCycle(@p now)) lowered to the
     * earliest DL1 MSHR completion, floored at now + 1.  An MSHR
     * that already completed stays listed until the next DL1 load
     * miss prunes it, so this is usually now + 1.  It adds no
     * progress, but finished cores tick on the cycles it visits, so
     * it is part of the timing model.
     */
    std::uint64_t paceCycle(std::uint64_t now, std::uint64_t next) const;

    struct RobEntry
    {
        std::uint64_t seq = 0;
        OpKind kind = OpKind::IntAlu;
        bool valid = false;
        bool issued = false; ///< executed; completion is final
        bool mispredicted = false;
        std::uint8_t latency = 1;
        /** Producers that have not issued yet. */
        std::uint8_t pendingDeps = 0;
        std::uint64_t completion = 0;
        /**
         * Latest completion among the producers that have issued; the
         * operand-ready cycle once pendingDeps reaches zero.
         */
        std::uint64_t readyCycle = 0;
        std::uint64_t dep1Seq = kNoDep;
        std::uint64_t dep2Seq = kNoDep;
        /**
         * Head of the list of unissued consumers waiting on this µop;
         * a link is (consumer seq << 1) | dependence slot.
         */
        std::uint64_t firstConsumer = kNoDep;
        /** Next link in the dep1 / dep2 producer's consumer list. */
        std::uint64_t nextConsumer[2] = {kNoDep, kNoDep};
        std::uint64_t addr = 0;
        std::uint64_t pc = 0;
    };

    /** RS entry whose producers have all issued, in age order. */
    struct ReadyOp
    {
        std::uint64_t seq;
        std::uint64_t cycle; ///< operand-ready cycle
    };

    struct FetchedUop
    {
        MicroOp uop;
        std::uint64_t seq = 0;
        std::uint64_t readyCycle = 0;
        bool mispredicted = false;
    };

    static constexpr std::uint64_t kNoDep = UINT64_MAX;
    static constexpr std::size_t kDepRing = 256;

    void retire(std::uint64_t now);
    void issue(std::uint64_t now);
    void dispatch(std::uint64_t now);
    void fetch(std::uint64_t now);

    RobEntry &entry(std::uint64_t seq) { return rob_[seq & robMask_]; }
    const RobEntry &entry(std::uint64_t seq) const
    {
        return rob_[seq & robMask_];
    }
    void linkDependence(RobEntry &e, int slot);
    void wakeConsumers(const RobEntry &producer);
    void insertReady(std::uint64_t seq, std::uint64_t cycle);
    bool tryExecute(RobEntry &e, std::uint64_t now);
    void executeLoadMiss(RobEntry &e, std::uint64_t now,
                         std::uint64_t start);
    void storeWrite(const RobEntry &e, std::uint64_t now);
    void runDl1Prefetch(std::uint64_t now, std::uint64_t pc,
                        std::uint64_t addr, bool was_miss);
    void issueIl1Prefetches(std::uint64_t now);
    void emitEvent(const UncoreRequestEvent &ev);
    std::int64_t inheritedMissDep(const RobEntry &e) const;

    const FetchedUop &fetchFront() const
    {
        return fetchBuffer_[fetchHead_];
    }
    void fetchPush(const FetchedUop &f);
    void fetchPop();

    const CoreConfig cfg_;
    TraceCursor trace_;
    UncoreIf &uncore_;
    const std::uint32_t coreId_;
    const std::uint64_t targetUops_;

    Tage tage_;
    Cache il1_;
    Cache dl1_;
    Tlb itlb_;
    Tlb dtlb_;
    std::unique_ptr<Prefetcher> dl1Prefetcher_;
    std::unique_ptr<Prefetcher> il1Prefetcher_;

    // ROB as a ring indexed by seq & robMask_: the ring is robSize
    // rounded up to a power of two, so indexing is a mask for any
    // robSize; occupancy is still capped at robSize.
    std::vector<RobEntry> rob_;
    std::uint64_t robMask_ = 0;
    std::uint64_t robHeadSeq_ = 0; ///< oldest in-flight seq
    std::uint64_t robTailSeq_ = 0; ///< next seq to dispatch
    std::uint32_t ldqUsed_ = 0;
    std::uint32_t stqUsed_ = 0;

    // RS: rsUsed_ counts dispatched, unissued µops.  Only those
    // whose producers have all issued are in readyOps_ (capacity
    // rsSize, sorted by seq); the rest wait on their producers'
    // consumer lists and are never scanned.
    std::uint32_t rsUsed_ = 0;
    std::vector<ReadyOp> readyOps_;

    // Fetch buffer: a fixed ring of fetchBufferSize slots.
    std::vector<FetchedUop> fetchBuffer_;
    std::uint32_t fetchHead_ = 0;
    std::uint32_t fetchCount_ = 0;
    std::optional<MicroOp> pendingUop_;
    std::uint64_t nextFetchSeq_ = 0;
    std::uint64_t fetchStallUntil_ = 0;
    std::uint64_t stalledBranchSeq_ = kNoDep;
    std::uint64_t curFetchLine_ = UINT64_MAX;

    struct Dl1Mshr
    {
        std::uint64_t lineAddr;
        std::uint64_t completion;
    };
    std::vector<Dl1Mshr> dl1Mshrs_;

    // Most recent blocking uncore request each µop depends on.
    std::vector<std::int64_t> missDepRing_;
    std::int64_t nextRequestIdx_ = 0;

    CoreObserver *observer_ = nullptr;
    CoreStats stats_;
    std::vector<std::uint64_t> prefetchScratch_;
};

/**
 * The cycle loop every caller of detailed cores shares.  Runs
 * @p cores (which may share one uncore; on any one cycle they tick
 * in order) from cycle 0 until each has reached its target.  A core
 * is ticked only at cycles at which it can progress, and the clock
 * jumps between such cycles.  Once a core has finished, its thread
 * restarts and keeps contending for the uncore (paper §IV-A); from
 * then on the clock steps through every paceCycle() of the
 * unfinished cores, and the finished cores' ticks land on the first
 * of those cycles at or after their own next event.
 */
void runToTarget(std::span<DetailedCore *const> cores);

/** Single-core form of runToTarget(). */
void runToTarget(DetailedCore &core);

} // namespace wsel

#endif // WSEL_CPU_DETAILED_CORE_HH
