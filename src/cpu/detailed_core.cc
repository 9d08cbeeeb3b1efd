#include "cpu/detailed_core.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "stats/logging.hh"

namespace wsel
{

std::string
CoreConfig::describe() const
{
    std::ostringstream os;
    os << "decode/issue/commit " << decodeWidth << "/" << issueWidth
       << "/" << commitWidth << ", RS/LDQ/STQ/ROB " << rsSize << "/"
       << ldqSize << "/" << stqSize << "/" << robSize << ", IL1 "
       << il1.sizeBytes / 1024 << "kB, DL1 " << dl1.sizeBytes / 1024
       << "kB, TAGE " << (1u << tage.bimodalBits) << "+"
       << tage.numTables << "x" << (1u << tage.taggedBits);
    return os.str();
}

double
CoreStats::ipc(std::uint64_t target_uops) const
{
    if (cyclesToTarget == 0)
        return 0.0;
    return static_cast<double>(target_uops) /
           static_cast<double>(cyclesToTarget);
}

DetailedCore::DetailedCore(const CoreConfig &cfg,
                           TraceCursor trace, UncoreIf &uncore,
                           std::uint32_t core_id,
                           std::uint64_t target_uops,
                           std::uint64_t seed)
    : cfg_(cfg), trace_(std::move(trace)), uncore_(uncore),
      coreId_(core_id),
      targetUops_(target_uops), tage_(cfg.tage, seed ^ 0x7a6e),
      il1_(cfg.il1, PolicyKind::LRU, seed ^ 0x111, "il1"),
      dl1_(cfg.dl1, PolicyKind::LRU, seed ^ 0xdd1, "dl1"),
      itlb_(cfg.itlbEntries, cfg.itlbWays),
      dtlb_(cfg.dtlbEntries, cfg.dtlbWays),
      missDepRing_(kDepRing, -1)
{
    if (targetUops_ == 0)
        WSEL_FATAL("target µop count cannot be zero");
    if (cfg_.robSize == 0 || cfg_.rsSize == 0 ||
        cfg_.decodeWidth == 0 || cfg_.issueWidth == 0 ||
        cfg_.commitWidth == 0)
        WSEL_FATAL("degenerate core configuration");
    rob_.resize(std::bit_ceil<std::uint64_t>(cfg_.robSize));
    robMask_ = rob_.size() - 1;
    readyOps_.reserve(cfg_.rsSize);
    fetchBuffer_.resize(cfg_.fetchBufferSize);

    std::vector<std::unique_ptr<Prefetcher>> dparts;
    if (cfg_.dl1NextLinePrefetch)
        dparts.push_back(
            makeNextLinePrefetcher(cfg_.dl1PrefetchDegree));
    if (cfg_.dl1IpStridePrefetch)
        dparts.push_back(
            makeIpStridePrefetcher(64, cfg_.dl1PrefetchDegree));
    dl1Prefetcher_ = dparts.empty()
                         ? makeNullPrefetcher()
                         : makeCompositePrefetcher(std::move(dparts));
    il1Prefetcher_ = cfg_.il1NextLinePrefetch
                         ? makeNextLinePrefetcher(1)
                         : makeNullPrefetcher();
}

// -------------------------------------------------------------------
// Wakeup: a producer's completion is fixed when it issues, so a
// consumer's operand-ready cycle is known, and never changes, once
// its last producer has issued.  Consumers wait on intrusive lists
// threaded through the ROB (RobEntry::firstConsumer).
// -------------------------------------------------------------------

void
DetailedCore::linkDependence(RobEntry &e, int slot)
{
    const std::uint64_t dep = slot == 0 ? e.dep1Seq : e.dep2Seq;
    if (dep == kNoDep)
        return;
    RobEntry &p = entry(dep);
    WSEL_ASSERT(p.valid && p.seq == dep,
                "dependence on a µop not in the ROB");
    if (p.issued) {
        e.readyCycle = std::max(e.readyCycle, p.completion);
        return;
    }
    e.nextConsumer[slot] = p.firstConsumer;
    p.firstConsumer = (e.seq << 1) | static_cast<std::uint64_t>(slot);
    ++e.pendingDeps;
}

void
DetailedCore::wakeConsumers(const RobEntry &producer)
{
    for (std::uint64_t link = producer.firstConsumer; link != kNoDep;) {
        RobEntry &c = entry(link >> 1);
        WSEL_ASSERT(c.valid && c.seq == (link >> 1) && !c.issued &&
                        c.pendingDeps > 0,
                    "consumer list corrupted");
        link = c.nextConsumer[link & 1];
        c.readyCycle = std::max(c.readyCycle, producer.completion);
        if (--c.pendingDeps == 0)
            insertReady(c.seq, c.readyCycle);
    }
}

void
DetailedCore::insertReady(std::uint64_t seq, std::uint64_t cycle)
{
    WSEL_ASSERT(readyOps_.size() < cfg_.rsSize, "RS overflow");
    auto pos = readyOps_.end();
    while (pos != readyOps_.begin() && (pos - 1)->seq > seq)
        --pos;
    readyOps_.insert(pos, ReadyOp{seq, cycle});
}

void
DetailedCore::fetchPush(const FetchedUop &f)
{
    std::uint32_t slot = fetchHead_ + fetchCount_;
    if (slot >= cfg_.fetchBufferSize)
        slot -= cfg_.fetchBufferSize;
    fetchBuffer_[slot] = f;
    ++fetchCount_;
}

void
DetailedCore::fetchPop()
{
    if (++fetchHead_ == cfg_.fetchBufferSize)
        fetchHead_ = 0;
    --fetchCount_;
}

std::int64_t
DetailedCore::inheritedMissDep(const RobEntry &e) const
{
    std::int64_t dep = -1;
    if (e.dep1Seq != kNoDep)
        dep = std::max(dep, missDepRing_[e.dep1Seq % kDepRing]);
    if (e.dep2Seq != kNoDep)
        dep = std::max(dep, missDepRing_[e.dep2Seq % kDepRing]);
    return dep;
}

void
DetailedCore::emitEvent(const UncoreRequestEvent &ev)
{
    if (observer_)
        observer_->onUncoreRequest(ev);
}

void
DetailedCore::tick(std::uint64_t now)
{
    ++stats_.cycles;
    retire(now);
    issue(now);
    dispatch(now);
    fetch(now);
}

// -------------------------------------------------------------------
// Commit stage
// -------------------------------------------------------------------

void
DetailedCore::retire(std::uint64_t now)
{
    for (std::uint32_t n = 0; n < cfg_.commitWidth; ++n) {
        if (robHeadSeq_ == robTailSeq_)
            return;
        RobEntry &e = entry(robHeadSeq_);
        WSEL_ASSERT(e.valid && e.seq == robHeadSeq_,
                    "ROB head corrupted");
        if (!e.issued || e.completion > now)
            return;
        if (e.kind == OpKind::Store) {
            storeWrite(e, now);
            WSEL_ASSERT(stqUsed_ > 0, "STQ underflow");
            --stqUsed_;
        } else if (e.kind == OpKind::Load) {
            WSEL_ASSERT(ldqUsed_ > 0, "LDQ underflow");
            --ldqUsed_;
        }
        e.valid = false;
        ++robHeadSeq_;
        ++stats_.committed;
        if (stats_.committed == targetUops_ &&
            stats_.cyclesToTarget == 0) {
            stats_.cyclesToTarget = now + 1;
        }
    }
}

void
DetailedCore::storeWrite(const RobEntry &e, std::uint64_t now)
{
    if (!dtlb_.access(e.addr))
        ++stats_.dtlbMisses;
    if (dl1_.probe(e.addr)) {
        dl1_.access(e.addr, true);
        return;
    }
    // Write-allocate miss: posted (non-blocking) refill.
    ++stats_.dl1Misses;
    ++stats_.uncoreStores;
    uncore_.access(now, coreId_, e.addr, true, e.pc, false);
    UncoreRequestEvent ev;
    ev.uopSeq = e.seq;
    ev.vaddr = e.addr;
    ev.pc = e.pc;
    ev.isWrite = true;
    ev.issueCycle = now;
    ev.dependsOn = -1;
    emitEvent(ev);
    const Cache::Result r = dl1_.access(e.addr, true);
    if (r.evicted.valid && r.evicted.dirty) {
        ++stats_.uncoreWritebacks;
        const std::uint64_t wb_addr =
            r.evicted.lineAddr * cfg_.dl1.lineBytes;
        uncore_.writeback(now, coreId_, wb_addr);
        UncoreRequestEvent wb;
        wb.uopSeq = e.seq;
        wb.vaddr = wb_addr;
        wb.isWriteback = true;
        wb.issueCycle = now;
        emitEvent(wb);
    }
    runDl1Prefetch(now, e.pc, e.addr, true);
}

// -------------------------------------------------------------------
// Issue / execute stage
// -------------------------------------------------------------------

void
DetailedCore::issue(std::uint64_t now)
{
    // Age order over the µops whose producers have issued; a
    // consumer woken here is younger than its producer, so it lands
    // behind the cursor and is still considered this cycle.
    std::uint32_t issued = 0;
    for (std::size_t i = 0;
         i < readyOps_.size() && issued < cfg_.issueWidth;) {
        if (readyOps_[i].cycle > now) {
            ++i;
            continue;
        }
        RobEntry &e = entry(readyOps_[i].seq);
        WSEL_ASSERT(e.valid && e.seq == readyOps_[i].seq && !e.issued,
                    "RS corrupted");
        if (!tryExecute(e, now)) {
            ++i; // structural hazard (e.g. DL1 MSHRs full)
            continue;
        }
        e.issued = true;
        readyOps_.erase(readyOps_.begin() +
                        static_cast<std::ptrdiff_t>(i));
        --rsUsed_;
        wakeConsumers(e);
        ++issued;
    }
}

bool
DetailedCore::tryExecute(RobEntry &e, std::uint64_t now)
{
    switch (e.kind) {
      case OpKind::IntAlu:
      case OpKind::FpAlu:
        e.completion = now + e.latency;
        missDepRing_[e.seq % kDepRing] = inheritedMissDep(e);
        return true;

      case OpKind::Branch:
        e.completion = now + 1;
        missDepRing_[e.seq % kDepRing] = inheritedMissDep(e);
        if (e.mispredicted && stalledBranchSeq_ == e.seq) {
            // Redirect the front-end once the branch resolves.
            stalledBranchSeq_ = kNoDep;
            fetchStallUntil_ =
                std::max(fetchStallUntil_, e.completion + 1);
        }
        return true;

      case OpKind::Store:
        // Address generation; data is written at commit.
        e.completion = now + 1;
        missDepRing_[e.seq % kDepRing] = inheritedMissDep(e);
        return true;

      case OpKind::Load: {
        const std::uint64_t line = dl1_.lineAddr(e.addr);
        if (dl1_.probe(e.addr)) {
            // Tag hit; the line may still be in flight (MSHR).
            std::uint64_t pending = 0;
            for (const Dl1Mshr &m : dl1Mshrs_) {
                if (m.lineAddr == line)
                    pending = std::max(pending, m.completion);
            }
            std::uint64_t extra = 0;
            if (!dtlb_.access(e.addr)) {
                ++stats_.dtlbMisses;
                extra = cfg_.pageWalkCycles;
            }
            dl1_.access(e.addr, false);
            e.completion =
                std::max(now + cfg_.dl1Latency + extra, pending);
            missDepRing_[e.seq % kDepRing] = inheritedMissDep(e);
            runDl1Prefetch(now, e.pc, e.addr, false);
            return true;
        }
        // DL1 miss: need a free MSHR.
        std::erase_if(dl1Mshrs_, [now](const Dl1Mshr &m) {
            return m.completion <= now;
        });
        if (dl1Mshrs_.size() >= cfg_.dl1Mshrs)
            return false;
        executeLoadMiss(e, now, now + cfg_.dl1Latency);
        return true;
      }
    }
    WSEL_PANIC("unreachable µop kind");
}

void
DetailedCore::executeLoadMiss(RobEntry &e, std::uint64_t now,
                              std::uint64_t start)
{
    std::uint64_t extra = 0;
    if (!dtlb_.access(e.addr)) {
        ++stats_.dtlbMisses;
        extra = cfg_.pageWalkCycles;
    }
    ++stats_.dl1Misses;
    ++stats_.uncoreLoads;

    const std::uint64_t completion =
        uncore_.access(start + extra, coreId_, e.addr, false, e.pc,
                       false);

    UncoreRequestEvent ev;
    ev.uopSeq = e.seq;
    ev.vaddr = e.addr;
    ev.pc = e.pc;
    ev.issueCycle = start + extra;
    ev.dependsOn = inheritedMissDep(e);
    emitEvent(ev);

    const std::int64_t req_idx = nextRequestIdx_++;
    missDepRing_[e.seq % kDepRing] = req_idx;

    dl1Mshrs_.push_back(Dl1Mshr{dl1_.lineAddr(e.addr), completion});

    const Cache::Result r = dl1_.access(e.addr, false);
    if (r.evicted.valid && r.evicted.dirty) {
        ++stats_.uncoreWritebacks;
        const std::uint64_t wb_addr =
            r.evicted.lineAddr * cfg_.dl1.lineBytes;
        uncore_.writeback(completion, coreId_, wb_addr);
        UncoreRequestEvent wb;
        wb.uopSeq = e.seq;
        wb.vaddr = wb_addr;
        wb.isWriteback = true;
        wb.issueCycle = completion;
        emitEvent(wb);
    }

    e.completion = completion;
    runDl1Prefetch(now, e.pc, e.addr, true);
}

void
DetailedCore::runDl1Prefetch(std::uint64_t now, std::uint64_t pc,
                             std::uint64_t addr, bool was_miss)
{
    prefetchScratch_.clear();
    dl1Prefetcher_->observe(pc, dl1_.lineAddr(addr), was_miss,
                            prefetchScratch_);
    for (std::uint64_t line : prefetchScratch_) {
        const std::uint64_t byte_addr = line * cfg_.dl1.lineBytes;
        if (dl1_.probe(byte_addr))
            continue;
        ++stats_.uncorePrefetches;
        uncore_.access(now + cfg_.dl1Latency, coreId_, byte_addr,
                       false, 0, true);
        UncoreRequestEvent ev;
        ev.uopSeq = robTailSeq_;
        ev.vaddr = byte_addr;
        ev.pc = pc;
        ev.isPrefetch = true;
        ev.issueCycle = now + cfg_.dl1Latency;
        emitEvent(ev);
        const Cache::Result r = dl1_.access(byte_addr, false, true);
        if (r.evicted.valid && r.evicted.dirty) {
            ++stats_.uncoreWritebacks;
            const std::uint64_t wb_addr =
                r.evicted.lineAddr * cfg_.dl1.lineBytes;
            uncore_.writeback(now + cfg_.dl1Latency, coreId_,
                              wb_addr);
            UncoreRequestEvent wb;
            wb.uopSeq = robTailSeq_;
            wb.vaddr = wb_addr;
            wb.isWriteback = true;
            wb.issueCycle = now + cfg_.dl1Latency;
            emitEvent(wb);
        }
    }
}

// -------------------------------------------------------------------
// Dispatch stage
// -------------------------------------------------------------------

void
DetailedCore::dispatch(std::uint64_t now)
{
    for (std::uint32_t n = 0; n < cfg_.decodeWidth; ++n) {
        if (fetchCount_ == 0)
            return;
        const FetchedUop &f = fetchFront();
        if (f.readyCycle > now)
            return;
        if (robTailSeq_ - robHeadSeq_ >= cfg_.robSize)
            return;
        if (rsUsed_ >= cfg_.rsSize)
            return;
        if (f.uop.kind == OpKind::Load && ldqUsed_ >= cfg_.ldqSize)
            return;
        if (f.uop.kind == OpKind::Store && stqUsed_ >= cfg_.stqSize)
            return;

        WSEL_ASSERT(f.seq == robTailSeq_,
                    "fetch/dispatch sequence mismatch");
        RobEntry &e = entry(robTailSeq_);
        e = RobEntry{};
        e.valid = true;
        e.seq = f.seq;
        e.kind = f.uop.kind;
        e.addr = f.uop.addr;
        e.pc = f.uop.pc;
        e.latency = std::max<std::uint8_t>(f.uop.latency, 1);
        e.mispredicted = f.mispredicted;
        e.dep1Seq = (f.uop.dep1 > 0 && f.uop.dep1 <= f.seq)
                        ? f.seq - f.uop.dep1
                        : kNoDep;
        e.dep2Seq = (f.uop.dep2 > 0 && f.uop.dep2 <= f.seq)
                        ? f.seq - f.uop.dep2
                        : kNoDep;
        // A dependence that fell out of the ROB is already resolved.
        if (e.dep1Seq != kNoDep && e.dep1Seq < robHeadSeq_)
            e.dep1Seq = kNoDep;
        if (e.dep2Seq != kNoDep && e.dep2Seq < robHeadSeq_)
            e.dep2Seq = kNoDep;

        linkDependence(e, 0);
        linkDependence(e, 1);
        if (e.pendingDeps == 0)
            readyOps_.push_back(ReadyOp{e.seq, e.readyCycle});

        if (e.kind == OpKind::Load)
            ++ldqUsed_;
        if (e.kind == OpKind::Store)
            ++stqUsed_;
        ++rsUsed_;
        ++robTailSeq_;
        fetchPop();
    }
}

// -------------------------------------------------------------------
// Fetch stage
// -------------------------------------------------------------------

void
DetailedCore::fetch(std::uint64_t now)
{
    if (stalledBranchSeq_ != kNoDep)
        return;
    if (now < fetchStallUntil_)
        return;

    for (std::uint32_t n = 0; n < cfg_.decodeWidth; ++n) {
        if (fetchCount_ >= cfg_.fetchBufferSize)
            return;

        MicroOp uop;
        if (pendingUop_) {
            uop = *pendingUop_;
            pendingUop_.reset();
        } else {
            // Thread restart at the trace target (paper §IV-A).
            if (trace_.generated() >= targetUops_)
                trace_.reset();
            uop = trace_.next();
        }

        // Instruction fetch: IL1/ITLB accessed per line crossed.
        const std::uint64_t line = il1_.lineAddr(uop.pc);
        if (line != curFetchLine_) {
            curFetchLine_ = line;
            std::uint64_t penalty = 0;
            if (!itlb_.access(uop.pc)) {
                ++stats_.itlbMisses;
                penalty += cfg_.pageWalkCycles;
            }
            const Cache::Result r = il1_.access(uop.pc, false);
            prefetchScratch_.clear();
            il1Prefetcher_->observe(uop.pc, line, !r.hit,
                                    prefetchScratch_);
            if (!r.hit) {
                ++stats_.il1Misses;
                ++stats_.uncoreLoads;
                const std::uint64_t comp = uncore_.access(
                    now + cfg_.il1Latency + penalty, coreId_, uop.pc,
                    false, uop.pc, false);
                UncoreRequestEvent ev;
                ev.uopSeq = nextFetchSeq_;
                ev.vaddr = uop.pc;
                ev.pc = uop.pc;
                ev.isInstruction = true;
                ev.issueCycle = now + cfg_.il1Latency + penalty;
                ev.dependsOn = -1;
                emitEvent(ev);
                fetchStallUntil_ = comp;
                pendingUop_ = uop;
                issueIl1Prefetches(now);
                return;
            }
            issueIl1Prefetches(now);
            if (penalty > 0) {
                fetchStallUntil_ = now + penalty;
                pendingUop_ = uop;
                return;
            }
        }

        FetchedUop f;
        f.uop = uop;
        f.seq = nextFetchSeq_++;
        f.readyCycle = now + cfg_.frontendDepth;

        if (uop.kind == OpKind::Branch) {
            ++stats_.branches;
            const bool correct =
                tage_.predictAndUpdate(uop.pc, uop.taken);
            if (!correct) {
                ++stats_.branchMispredicts;
                f.mispredicted = true;
                fetchPush(f);
                // Stall until the branch executes and redirects.
                stalledBranchSeq_ = f.seq;
                return;
            }
        }
        fetchPush(f);
    }
}

void
DetailedCore::issueIl1Prefetches(std::uint64_t now)
{
    for (std::uint64_t pline : prefetchScratch_) {
        const std::uint64_t byte_addr = pline * cfg_.il1.lineBytes;
        if (il1_.probe(byte_addr))
            continue;
        ++stats_.uncorePrefetches;
        uncore_.access(now + cfg_.il1Latency, coreId_, byte_addr,
                       false, 0, true);
        UncoreRequestEvent ev;
        ev.uopSeq = nextFetchSeq_;
        ev.vaddr = byte_addr;
        ev.isPrefetch = true;
        ev.issueCycle = now + cfg_.il1Latency;
        emitEvent(ev);
        il1_.access(byte_addr, false, true);
    }
    prefetchScratch_.clear();
}

// -------------------------------------------------------------------
// Idle-cycle skipping support
// -------------------------------------------------------------------

std::uint64_t
DetailedCore::nextEventCycle(std::uint64_t now) const
{
    // Every candidate is floored at now + 1, so reaching that floor
    // settles the answer.
    const std::uint64_t floor = now + 1;
    std::uint64_t best = UINT64_MAX;
    auto consider = [&](std::uint64_t c) {
        best = std::min(best, std::max(c, floor));
        return best == floor;
    };

    // Fetch progress.
    if (stalledBranchSeq_ == kNoDep &&
        fetchCount_ < cfg_.fetchBufferSize &&
        consider(fetchStallUntil_))
        return best;

    // Dispatch progress.
    if (fetchCount_ != 0 && consider(fetchFront().readyCycle))
        return best;

    // Retire progress.
    if (robHeadSeq_ != robTailSeq_) {
        const RobEntry &h = entry(robHeadSeq_);
        if (h.issued && consider(h.completion))
            return best;
    }

    // Issue progress: a µop whose producers have all issued becomes
    // ready at its operand-ready cycle; the others wait on an issue.
    // A load stalled on a full MSHR file is ready already, so it
    // keeps this at now + 1 until an MSHR frees.
    for (const ReadyOp &r : readyOps_)
        if (consider(r.cycle))
            return best;
    return best;
}

std::uint64_t
DetailedCore::paceCycle(std::uint64_t now, std::uint64_t next) const
{
    std::uint64_t best = next;
    for (const Dl1Mshr &m : dl1Mshrs_) {
        best = std::min(best, std::max(m.completion, now + 1));
        if (best == now + 1)
            break;
    }
    return best;
}

void
runToTarget(std::span<DetailedCore *const> cores)
{
    struct Slot
    {
        DetailedCore *core;
        std::uint64_t tickAt; ///< its nextEventCycle()
        std::uint64_t paceAt; ///< its paceCycle()
    };
    std::vector<Slot> slots;
    slots.reserve(cores.size());
    for (DetailedCore *c : cores)
        slots.push_back(Slot{c, 0, 0});

    // Until a core finishes, only the cores' own events matter.
    bool any_done = false;
    std::uint64_t now = 0;
    while (true) {
        bool all_done = true;
        for (Slot &s : slots) {
            if (s.tickAt <= now) {
                s.core->tick(now);
                s.tickAt = s.core->nextEventCycle(now);
                s.paceAt = s.core->paceCycle(now, s.tickAt);
            }
            const bool done = s.core->reachedTarget();
            all_done = all_done && done;
            any_done = any_done || done;
        }
        if (all_done)
            return;
        // No unfinished core can do better than the next cycle.
        std::uint64_t next = UINT64_MAX;
        for (const Slot &s : slots) {
            if (s.core->reachedTarget())
                continue;
            next = std::min(next, any_done ? s.paceAt : s.tickAt);
            if (next <= now + 1)
                break;
        }
        WSEL_ASSERT(next != UINT64_MAX, "no core can make progress");
        now = std::max(now + 1, next);
    }
}

void
runToTarget(DetailedCore &core)
{
    DetailedCore *const one[] = {&core};
    runToTarget(one);
}

} // namespace wsel
