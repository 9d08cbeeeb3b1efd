/**
 * @file
 * The BADCO machine: an abstract core that fetches and executes the
 * nodes of a BadcoModel against a (shared) uncore. Much faster than
 * the detailed core because it processes one node — not one µop, not
 * one cycle — per step.
 *
 * Timing semantics: nodes execute in order, each consuming its
 * intrinsic weight of core cycles. A node's request issues at the
 * machine's local clock, after waiting for (a) the completion of the
 * load it depends on, (b) the ROB window — the machine cannot run
 * more than robSize µops past an incomplete blocking load — and
 * (c) a free outstanding-request slot (L1 MSHR mirror). The thread
 * restarts at the end of the model, like the paper's multiprogram
 * protocol.
 *
 * runBadcoLane() is the one implementation of that node walk. A
 * BadcoMachine runs it against any UncoreIf; the batched cell engine
 * (sim/batch.hh) runs it against a concrete, final Uncore, so its
 * uncore calls are devirtualized.
 */

#ifndef WSEL_BADCO_BADCO_MACHINE_HH
#define WSEL_BADCO_BADCO_MACHINE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "badco/badco_model.hh"
#include "mem/uncore.hh"
#include "stats/logging.hh"

namespace wsel
{

/**
 * One core executing one BadcoModel: the inputs its node walk reads
 * and the state it resumes from at the next deadline. Aligned to
 * 128 B (one adjacent-line pair) so lanes that different threads
 * step never share a host cache line.
 */
struct alignas(128) BadcoLane
{
    /** @name Inputs, fixed while the lane runs. */
    /** @{ */
    const BadcoModel *model = nullptr; ///< finalize()d model
    std::uint64_t *outComp = nullptr;  ///< maxOutstanding slots
    std::uint64_t *outMark = nullptr;  ///< µop count at each issue
    std::uint64_t *loadComp = nullptr; ///< model->loadCount slots
    std::uint64_t targetUops = 0;      ///< µops after which IPC freezes
    std::uint32_t core = 0;            ///< core index at the uncore
    std::uint32_t window = 0;          ///< effective window in µops
    std::uint32_t maxOutstanding = 0;  ///< outstanding-load cap
    /** Idle once the target is reached instead of restarting. */
    bool haltAtTarget = false;
    /** @} */

    /** @name Walk state. */
    /** @{ */
    std::uint64_t clock = 0;          ///< local clock in core cycles
    std::uint64_t uops = 0;           ///< µops of progress so far
    std::size_t node = 0;             ///< next node of the model
    std::uint64_t loadSeq = 0;        ///< loads issued this iteration
    std::uint64_t outMin = UINT64_MAX; ///< min over outComp[0, outCount)
    std::uint32_t outCount = 0;       ///< outstanding loads
    std::uint64_t cyclesToTarget = 0; ///< clock when target hit
    std::uint64_t requests = 0;       ///< uncore requests replayed
    /** @} */
};

/**
 * Walk @p lane's nodes against @p uncore until its local clock
 * reaches @p until (the end of the current simulation quantum).
 * @p U is UncoreIf for a virtual uncore or the final Uncore for
 * devirtualized calls; the walk is the same either way.
 */
template <class U>
inline void
runBadcoLane(BadcoLane &lane, U &uncore, std::uint64_t until)
{
    // Lane state in locals for the step loop; written back once at
    // the deadline.
    std::uint64_t clk = lane.clock;
    std::uint64_t tu = lane.uops;
    std::size_t ni = lane.node;
    std::uint64_t seq = lane.loadSeq;
    std::uint64_t omin = lane.outMin;
    std::uint32_t ocnt = lane.outCount;
    std::uint64_t ctt = lane.cyclesToTarget;
    std::uint64_t reqs = lane.requests;
    const BadcoModel &model = *lane.model;
    const std::size_t ncount = model.nodeWeight.size();
    const std::uint32_t *nw = model.nodeWeight.data();
    const std::uint32_t *nu = model.nodeUops.data();
    const std::uint64_t *nv = model.nodeVaddr.data();
    const std::uint64_t *npc = model.nodePc.data();
    const std::uint8_t *nt = model.nodeType.data();
    const std::int64_t *nd = model.nodeDependsOn.data();
    std::uint64_t *const ocomp = lane.outComp;
    std::uint64_t *const omark = lane.outMark;
    std::uint64_t *const lcomp = lane.loadComp;
    const std::uint32_t core = lane.core;
    const std::uint64_t target = lane.targetUops;
    const std::uint32_t window = lane.window;
    const std::uint32_t max_out = lane.maxOutstanding;
    const bool halt = lane.haltAtTarget;

    // Drop completed loads. Nothing can have completed before the
    // earliest completion, so the scan is skipped until then; the
    // compaction is stable and recomputes the minimum as it goes.
    const auto expire = [&] {
        if (omin > clk)
            return;
        std::uint64_t min = UINT64_MAX;
        std::uint32_t n = 0;
        for (std::uint32_t j = 0; j < ocnt; ++j) {
            if (ocomp[j] > clk) {
                ocomp[n] = ocomp[j];
                omark[n] = omark[j];
                min = std::min(min, ocomp[j]);
                ++n;
            }
        }
        ocnt = n;
        omin = min;
    };
    // The target µop cannot commit before in-flight older loads
    // complete.
    const auto check_target = [&] {
        if (ctt != 0 || tu < target)
            return;
        std::uint64_t t = clk;
        for (std::uint32_t j = 0; j < ocnt; ++j)
            t = std::max(t, ocomp[j]);
        ctt = std::max<std::uint64_t>(t, 1);
    };

    while (clk < until) {
        if (halt && ctt != 0) {
            // Idle: the thread halted instead of restarting.
            clk = until;
            break;
        }
        if (ni >= ncount) {
            // Tail of the slice, then thread restart.
            clk += model.tailWeight;
            tu += model.tailUops;
            check_target();
            ni = 0;
            seq = 0;
            continue;
        }
        const std::size_t i = ni;

        // Intrinsic execution of the node's µops (SoA walk).
        clk += nw[i];
        tu += nu[i];
        expire();

        // Effective-window constraint: the machine cannot be more
        // than window µops past an incomplete blocking load. omark
        // is non-decreasing in push order, so once an entry is
        // inside the window every later entry is too.
        for (std::uint32_t j = 0; j < ocnt; ++j) {
            if (tu <= omark[j] + window)
                break;
            if (ocomp[j] > clk)
                clk = ocomp[j];
        }
        expire();

        const std::uint64_t vaddr = nv[i];
        const std::uint64_t pc = npc[i];
        switch (static_cast<BadcoReqType>(nt[i])) {
          case BadcoReqType::Load: {
            const std::int64_t depends_on = nd[i];
            if (depends_on >= 0) {
                WSEL_ASSERT(
                    static_cast<std::uint64_t>(depends_on) < seq,
                    "forward load dependency in model");
                const std::uint64_t dep_done = lcomp[depends_on];
                if (dep_done > clk) {
                    clk = dep_done;
                    expire();
                }
            }
            // Outstanding-slot (MSHR) limit: wait for the earliest
            // completion.
            if (ocnt >= max_out) {
                if (omin > clk)
                    clk = omin;
                expire();
            }
            const std::uint64_t comp =
                uncore.access(clk, core, vaddr, false, pc, false);
            ocomp[ocnt] = comp;
            omark[ocnt] = tu;
            ++ocnt;
            omin = std::min(omin, comp);
            WSEL_ASSERT(seq < model.loadCount,
                        "load numbering overflow");
            lcomp[seq++] = comp;
            break;
          }
          case BadcoReqType::Store:
            uncore.access(clk, core, vaddr, true, pc, false);
            break;
          case BadcoReqType::Prefetch:
            uncore.access(clk, core, vaddr, false, pc, true);
            break;
          case BadcoReqType::Writeback:
            uncore.writeback(clk, core, vaddr);
            break;
        }
        ++reqs;
        check_target();
        ++ni;
    }

    lane.clock = clk;
    lane.uops = tu;
    lane.node = ni;
    lane.loadSeq = seq;
    lane.outMin = omin;
    lane.outCount = ocnt;
    lane.cyclesToTarget = ctt;
    lane.requests = reqs;
}

/** Counters exposed by a BadcoMachine. */
struct BadcoMachineStats
{
    std::uint64_t uops = 0;           ///< µops of progress so far
    std::uint64_t requests = 0;       ///< uncore requests replayed
    std::uint64_t cyclesToTarget = 0; ///< clock when target hit
};

/**
 * Trace-driven behavioural core executing one BadcoModel: one
 * BadcoLane with its own outstanding-load and load-completion
 * arrays, walked against a virtual uncore.
 */
class BadcoMachine
{
  public:
    /**
     * @param model Behavioural model to execute (caller-owned;
     *        must be finalize()d — the machine walks the SoA view).
     * @param uncore Shared uncore (caller-owned).
     * @param core_id Core index at the uncore.
     * @param target_uops µop count after which IPC freezes.
     * @param window Effective out-of-order window in µops: how far
     *        the machine may run past an incomplete blocking load.
     *        0 (the default) uses the model's per-benchmark
     *        calibrated window (second-trace calibration); nonzero
     *        overrides it (for ablations).
     * @param max_outstanding Outstanding-load cap (MLP limit).
     */
    BadcoMachine(const BadcoModel &model, UncoreIf &uncore,
                 std::uint32_t core_id, std::uint64_t target_uops,
                 std::uint32_t window = 0,
                 std::uint32_t max_outstanding = 16);

    /** The lane points into this machine's own arrays. */
    BadcoMachine(const BadcoMachine &) = delete;
    BadcoMachine &operator=(const BadcoMachine &) = delete;

    /**
     * Execute nodes until the local clock reaches @p until (the end
     * of the current simulation quantum).
     */
    void run(std::uint64_t until) { runBadcoLane(lane_, uncore_, until); }

    /**
     * Stop making progress once the target is reached instead of
     * restarting the thread (an alternative to the paper's §IV-A
     * restart protocol, for protocol ablations). Must be set before
     * running.
     */
    void stopAtTarget(bool stop) { lane_.haltAtTarget = stop; }

    /** True once target_uops µops of progress were made. */
    bool reachedTarget() const { return lane_.cyclesToTarget != 0; }

    /** IPC over the first target_uops µops. */
    double ipc() const;

    /** Local clock in core cycles. */
    std::uint64_t localClock() const { return lane_.clock; }

    BadcoMachineStats
    stats() const
    {
        return {lane_.uops, lane_.requests, lane_.cyclesToTarget};
    }

    std::uint32_t coreId() const { return lane_.core; }

  private:
    UncoreIf &uncore_;
    std::vector<std::uint64_t> outComp_;
    std::vector<std::uint64_t> outMark_;
    /** Completion cycle of each load in the current iteration. */
    std::vector<std::uint64_t> loadComp_;
    BadcoLane lane_;
};

} // namespace wsel

#endif // WSEL_BADCO_BADCO_MACHINE_HH
