#include "sim/batch.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "cache/tagscan.hh"
#include "exec/scheduler.hh"
#include "mem/numa.hh"
#include "obs/metrics.hh"
#include "stats/logging.hh"

namespace wsel
{

std::uint32_t
resolveBatchCells(std::uint32_t requested)
{
    std::uint64_t b = requested;
    if (b == 0) {
        b = kDefaultBatchCells;
        if (const char *env = std::getenv("WSEL_BATCH_CELLS");
            env && *env) {
            char *end = nullptr;
            const unsigned long long v =
                std::strtoull(env, &end, 10);
            if (end != env && *end == '\0' && v > 0) {
                b = v;
            } else {
                warn("ignoring invalid WSEL_BATCH_CELLS '" +
                     std::string(env) + "' (want a positive cell "
                     "count)");
            }
        }
    }
    return static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        b, 1, kMaxBatchCells));
}

std::uint32_t
resolveBatchWave(std::uint32_t requested)
{
    std::uint64_t w = requested;
    if (w == 0) {
        w = kDefaultBatchWave;
        if (const char *env = std::getenv("WSEL_BATCH_WAVE");
            env && *env) {
            char *end = nullptr;
            const unsigned long long v =
                std::strtoull(env, &end, 10);
            if (end != env && *end == '\0' && v > 0) {
                w = v;
            } else {
                warn("ignoring invalid WSEL_BATCH_WAVE '" +
                     std::string(env) + "' (want a positive wave "
                     "width)");
            }
        }
    }
    return static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        w, 1, kMaxBatchCells));
}

std::size_t
estimateUncoreFootprint(const UncoreConfig &cfg,
                        std::uint32_t cores)
{
    const std::uint64_t lines =
        cfg.llc.sizeBytes / cfg.llc.lineBytes;
    // Packed tag (4 B) + dirty byte + ~8 B/line of replacement
    // state covers LRU ranks and dueling metadata.
    std::size_t bytes = static_cast<std::size_t>(lines) * 13;
    bytes += 4096 * 16;                            // page table
    bytes += static_cast<std::size_t>(cores) * 512 * 16; // xlate
    bytes += static_cast<std::size_t>(cores) * 4096; // prefetchers
    bytes += 16384; // MSHRs, write buffer, counters, slack
    return bytes;
}

namespace
{

/** WSEL_WAVE_MEM in bytes (MiB knob, default kDefaultWaveMemMib). */
std::uint64_t
waveBudgetBytes()
{
    std::uint64_t mib = kDefaultWaveMemMib;
    if (const char *env = std::getenv("WSEL_WAVE_MEM");
        env && *env) {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(env, &end, 10);
        if (end != env && *end == '\0' && v > 0) {
            mib = v;
        } else {
            warn("ignoring invalid WSEL_WAVE_MEM '" +
                 std::string(env) + "' (want a positive MiB "
                 "budget)");
        }
    }
    return mib << 20;
}

/** Host bytes of the largest policy's resident uncore. */
std::size_t
worstUncoreFootprint(std::span<const UncoreConfig> ucfgs,
                     std::uint32_t cores)
{
    std::size_t worst = 1;
    for (const UncoreConfig &cfg : ucfgs)
        worst = std::max(worst, estimateUncoreFootprint(cfg, cores));
    return worst;
}

} // namespace

BadcoBatchRunner::BadcoBatchRunner(
    std::span<const UncoreConfig> ucfgs, std::uint32_t cores,
    std::uint64_t target_uops,
    const std::vector<const BadcoModel *> &models,
    std::uint32_t batch_cells, std::uint32_t wave, std::size_t jobs,
    std::atomic<std::uint64_t> *cells_done)
    : ucfgs_(ucfgs), cores_(cores),
      laneStride_((cores + kLaneAlign - 1) / kLaneAlign * kLaneAlign),
      targetUops_(target_uops),
      models_(models),
      batchCells_(std::clamp<std::uint32_t>(batch_cells, 1,
                                            kMaxBatchCells)),
      cellsDone_(cells_done)
{
    if (cores_ == 0)
        WSEL_FATAL("need at least one core");
    if (targetUops_ == 0)
        WSEL_FATAL("target µop count cannot be zero");

    // Wave width: within the batch, and small enough that one
    // group's W resident uncores (worst policy) fit WSEL_WAVE_MEM.
    // Threads: the caller's jobs, and in wave mode no more groups in
    // flight than the budget holds, so all threads' resident
    // uncores together fit it too.
    wave_ = std::min(std::clamp<std::uint32_t>(wave, 1,
                                               kMaxBatchCells),
                     batchCells_);
    threads_ = exec::resolveJobs(jobs);
    if (wave_ > 1 && !ucfgs.empty()) {
        const std::size_t worst = worstUncoreFootprint(ucfgs, cores);
        const std::uint64_t budget = waveBudgetBytes();
        const std::uint64_t allowed =
            std::max<std::uint64_t>(1, budget / worst);
        if (allowed < wave_) {
            warn("clamping --batch-wave " + std::to_string(wave_) +
                 " to " + std::to_string(allowed) +
                 ": resident uncores (~" +
                 std::to_string(worst >> 10) +
                 " KiB each) exceed the WSEL_WAVE_MEM budget");
            wave_ = static_cast<std::uint32_t>(allowed);
        }
        const std::uint64_t groups = std::max<std::uint64_t>(
            1, budget / (static_cast<std::uint64_t>(wave_) * worst));
        if (groups < threads_) {
            warn("running " + std::to_string(groups) +
                 " wave groups at a time instead of " +
                 std::to_string(threads_) +
                 ": their resident uncores exceed the WSEL_WAVE_MEM "
                 "budget");
            threads_ = static_cast<std::uint32_t>(groups);
        }
    }
    capacity_ = batchCells_ * threads_;
    workers_ = std::vector<Worker>(threads_);

    const std::size_t lanes =
        static_cast<std::size_t>(capacity_) * laneStride_;
    cellSeed_.resize(capacity_);
    cellPolicy_.resize(capacity_);
    cellOut_.resize(capacity_);
    cellLoads_.resize(capacity_);
    clock_.resize(lanes);
    totalUops_.resize(lanes);
    nodeIdx_.resize(lanes);
    loadSeq_.resize(lanes);
    outMin_.resize(lanes);
    outCnt_.resize(lanes);
    cyclesToTarget_.resize(lanes);
    laneWindow_.resize(lanes);
    laneModel_.resize(lanes);
    loadOff_.resize(lanes);
    outComp_.resize(lanes * kMaxOutstanding);
    outMark_.resize(lanes * kMaxOutstanding);

    // The resizes above first-touch every slab on the constructing
    // thread, so kernel-default placement puts them on its node;
    // WSEL_NUMA=interleave re-spreads the big slabs instead
    // (mem/numa.hh).
    numa::placeSlab(clock_.data(),
                    clock_.size() * sizeof(clock_[0]));
    numa::placeSlab(totalUops_.data(),
                    totalUops_.size() * sizeof(totalUops_[0]));
    numa::placeSlab(cyclesToTarget_.data(),
                    cyclesToTarget_.size() *
                        sizeof(cyclesToTarget_[0]));
    numa::placeSlab(outComp_.data(),
                    outComp_.size() * sizeof(outComp_[0]));
    numa::placeSlab(outMark_.data(),
                    outMark_.size() * sizeof(outMark_[0]));

    if (wave_ > 1) {
        for (Worker &w : workers_) {
            w.waveUnc.reserve(wave_);
            w.waveT.reserve(wave_);
            w.waveFirst.reserve(wave_);
            w.waveRot.reserve(wave_);
            w.waveDone.reserve(wave_);
            w.waveStepping.reserve(wave_);
            w.wavePhase.reserve(wave_);
            w.wavePend.resize(wave_);
            w.waveResume.reserve(wave_);
            w.wavePendCell.reserve(wave_);
            w.waveProbe.reserve(wave_);
            w.waveWay.reserve(wave_);
        }
    }

    if (obs::metricsEnabled()) {
        obs::gauge("batch.simd_path")
            .set(static_cast<double>(tagscan::activePath()));
        obs::gauge("batch.wave").set(static_cast<double>(wave_));
    }
}

BadcoBatchRunner::~BadcoBatchRunner() = default;

void
BadcoBatchRunner::add(std::uint64_t seed, std::uint32_t policy,
                      std::span<const std::uint32_t> benches,
                      double *out_ipc)
{
    if (full())
        run();
    if (benches.size() != cores_)
        WSEL_FATAL("workload has " << benches.size()
                                   << " threads for " << cores_
                                   << " cores");
    if (policy >= ucfgs_.size())
        WSEL_FATAL("cell references policy " << policy
                   << " outside the campaign's " << ucfgs_.size());

    const std::size_t b = cells_;
    // Lane load offsets are cell-local: whichever thread runs the
    // cell places its region in that thread's own arena.
    std::size_t load_watermark = 0;
    cellSeed_[b] = seed;
    cellPolicy_[b] = policy;
    cellOut_[b] = out_ipc;
    for (std::uint32_t k = 0; k < cores_; ++k) {
        const std::uint32_t bench = benches[k];
        if (bench >= models_.size() || models_[bench] == nullptr)
            WSEL_FATAL("no BADCO model for benchmark " << bench);
        const BadcoModel &model = *models_[bench];
        if (model.traceUops == 0 || model.intrinsicCycles == 0)
            WSEL_FATAL("empty BADCO model for " << model.benchmark);
        if (!model.finalized)
            WSEL_FATAL("BADCO model for " << model.benchmark
                       << " was not finalize()d");
        if (model.window == 0)
            WSEL_FATAL("degenerate BADCO machine limits");
        const std::size_t lane =
            static_cast<std::size_t>(b) * laneStride_ + k;
        clock_[lane] = 0;
        totalUops_[lane] = 0;
        nodeIdx_[lane] = 0;
        loadSeq_[lane] = 0;
        outMin_[lane] = UINT64_MAX;
        outCnt_[lane] = 0;
        cyclesToTarget_[lane] = 0;
        laneWindow_[lane] = model.window;
        laneModel_[lane] = &model;
        loadOff_[lane] = load_watermark;
        load_watermark += model.loadCount;
    }
    cellLoads_[b] = load_watermark;
    ++cells_;
}

void
BadcoBatchRunner::run()
{
    if (cells_ == 0)
        return;
    const bool metrics = obs::metricsEnabled();
    obs::Gauge *lanes_active = nullptr;
    obs::Gauge *resident = nullptr;
    // A wave of one (or a lone leftover cell) degenerates to
    // cell-major exactly, so claim groups of W cells in wave mode
    // and single cells otherwise.
    const std::size_t group = wave_;
    const std::size_t groups = (cells_ + group - 1) / group;
    const std::size_t threads =
        std::min<std::size_t>(threads_, groups);
    if (metrics) {
        static obs::Counter &cellsC = obs::counter("batch.cells");
        static obs::Gauge &lanesG =
            obs::gauge("batch.lanes_active");
        static obs::Gauge &residentG =
            obs::gauge("batch.uncores_resident");
        cellsC.inc(cells_);
        lanes_active = &lanesG;
        lanesG.set(static_cast<double>(cells_ * cores_));
        if (wave_ > 1) {
            resident = &residentG;
            residentG.set(static_cast<double>(
                threads * std::min(group, cells_)));
        }
    }

    // Each thread claims the next unclaimed group until none is
    // left. Which thread runs which group, and in what order, is
    // unobservable: cells share nothing, and each writes only its
    // own lanes and output slot.
    std::atomic<std::size_t> next{0};
    const auto drain = [&](std::size_t t) {
        Worker &w = workers_[t];
        for (std::size_t g = next.fetch_add(1); g < groups;
             g = next.fetch_add(1)) {
            const std::size_t g0 = g * group;
            const std::size_t gn = std::min(group, cells_ - g0);
            if (gn == 1)
                runCell(w, g0);
            else
                runWave(w, g0, gn);
            if (cellsDone_)
                cellsDone_->fetch_add(gn, std::memory_order_relaxed);
        }
    };
    if (threads <= 1) {
        drain(0);
    } else {
        if (!pool_)
            pool_ = std::make_unique<exec::ThreadPool>(threads_);
        exec::parallel_for(*pool_, std::size_t{0}, threads, drain);
    }

    if (lanes_active)
        lanes_active->set(0.0);
    if (resident)
        resident->set(0.0);
    cells_ = 0;
}

void
BadcoBatchRunner::runCell(Worker &w, std::size_t b)
{
    // Cell-major execution: the cell runs to completion under the
    // rotating-quantum schedule of BadcoMulticoreSim::run. Cells
    // share nothing, so this ordering is bitwise identical to any
    // cross-cell interleaving — and it keeps one uncore's working
    // set hot per thread instead of cycling several of them
    // through the host cache every quantum.
    if (w.loadComp.size() < cellLoads_[b])
        w.loadComp.resize(cellLoads_[b]);
    w.uncore.emplace(ucfgs_[cellPolicy_[b]], cores_, cellSeed_[b]);
    Uncore &unc = *w.uncore;
    const std::size_t base = b * laneStride_;
    std::uint64_t t = 0;
    std::uint32_t first = 0;
    for (;;) {
        bool all_done = true;
        for (std::uint32_t k = 0; k < cores_; ++k)
            all_done = all_done && cyclesToTarget_[base + k] != 0;
        if (all_done)
            break;
        t += kQuantum;
        for (std::uint32_t i = 0; i < cores_; ++i) {
            std::uint32_t k = first + i;
            if (k >= cores_)
                k -= cores_;
            const std::size_t lane = base + k;
            if (clock_[lane] < t)
                runLane(lane, unc, k, t, w.loadComp.data());
        }
        first = first + 1 == cores_ ? 0 : first + 1;
    }
    double *out = cellOut_[b];
    for (std::uint32_t k = 0; k < cores_; ++k)
        out[k] = static_cast<double>(targetUops_) /
                 static_cast<double>(cyclesToTarget_[base + k]);
    w.uncore.reset();
}

void
BadcoBatchRunner::runLane(std::size_t lane, Uncore &unc,
                          std::uint32_t core, std::uint64_t until,
                          std::uint64_t *lcomp_base)
{
    // Lane state in locals for the step loop; written back once at
    // quantum end. The loop body is BadcoMachine::step() operation
    // for operation (minus the pure stall/request counters, which
    // never feed back into timing) — any divergence here breaks
    // the bitwise-identity contract, so change both together.
    std::uint64_t clk = clock_[lane];
    std::uint64_t tu = totalUops_[lane];
    std::size_t ni = nodeIdx_[lane];
    std::uint64_t seq = loadSeq_[lane];
    std::uint64_t omin = outMin_[lane];
    std::uint32_t ocnt = outCnt_[lane];
    std::uint64_t ctt = cyclesToTarget_[lane];
    const std::uint32_t window = laneWindow_[lane];
    const BadcoModel &model = *laneModel_[lane];
    const std::size_t ncount = model.nodeWeight.size();
    const std::uint32_t *nw = model.nodeWeight.data();
    const std::uint32_t *nu = model.nodeUops.data();
    const std::uint64_t *nv = model.nodeVaddr.data();
    const std::uint64_t *npc = model.nodePc.data();
    const std::uint8_t *nt = model.nodeType.data();
    const std::int64_t *nd = model.nodeDependsOn.data();
    std::uint64_t *ocomp =
        outComp_.data() +
        static_cast<std::size_t>(lane) * kMaxOutstanding;
    std::uint64_t *omark =
        outMark_.data() +
        static_cast<std::size_t>(lane) * kMaxOutstanding;
    std::uint64_t *lcomp = lcomp_base + loadOff_[lane];

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
    const auto check_target = [&] {
        if (ctt != 0 || tu < targetUops_)
            return;
        std::uint64_t t = clk;
        for (std::uint32_t j = 0; j < ocnt; ++j)
            t = std::max(t, ocomp[j]);
        ctt = std::max<std::uint64_t>(t, 1);
    };

    while (clk < until) {
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

        clk += nw[i];
        tu += nu[i];
        expire();

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
            if (ocnt >= kMaxOutstanding) {
                if (omin > clk)
                    clk = omin;
                expire();
            }
            const std::uint64_t comp =
                unc.access(clk, core, vaddr, false, pc, false);
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
            unc.access(clk, core, vaddr, true, pc, false);
            break;
          case BadcoReqType::Prefetch:
            unc.access(clk, core, vaddr, false, pc, true);
            break;
          case BadcoReqType::Writeback:
            unc.writeback(clk, core, vaddr);
            break;
        }
        check_target();
        ++ni;
    }

    clock_[lane] = clk;
    totalUops_[lane] = tu;
    nodeIdx_[lane] = ni;
    loadSeq_[lane] = seq;
    outMin_[lane] = omin;
    outCnt_[lane] = ocnt;
    cyclesToTarget_[lane] = ctt;
}

void
BadcoBatchRunner::runWave(Worker &w, std::size_t g0, std::size_t gn)
{
    obs::Counter *probes_gathered = nullptr;
    if (obs::metricsEnabled()) {
        static obs::Counter &probesC =
            obs::counter("batch.probes_gathered");
        probes_gathered = &probesC;
    }

    // The group's cells advance in lockstep. Each cell runs its own
    // copy of the cell-major control flow — the all-done check, the
    // quantum advance, the rotating lane schedule — so its uncore
    // sees the exact request sequence cell-major issues; only
    // *between* cells does execution interleave, which the
    // share-nothing contract makes unobservable.
    w.waveUnc.clear();
    w.waveUnc.resize(gn);
    for (std::size_t c = 0; c < gn; ++c)
        w.waveUnc[c].emplace(ucfgs_[cellPolicy_[g0 + c]], cores_,
                             cellSeed_[g0 + c]);
    // Cell-major execution lets every cell reuse one load-completion
    // region; resident cells must not — give each wave slot its own
    // stride-sized region for the lifetime of the group.
    w.loadStride = 0;
    for (std::size_t c = 0; c < gn; ++c)
        w.loadStride = std::max(w.loadStride, cellLoads_[g0 + c]);
    if (w.loadComp.size() < gn * w.loadStride)
        w.loadComp.resize(gn * w.loadStride);
    w.waveT.assign(gn, 0);
    w.waveFirst.assign(gn, 0);
    w.waveRot.assign(gn, 0);
    w.waveDone.assign(gn, 0);
    w.waveStepping.assign(gn, 0);
    w.wavePhase.assign(gn, kPhaseTop);
    w.waveResume.assign(gn, UINT32_MAX);

    std::size_t remaining = gn;
    while (remaining > 0) {
        // Quantum head, per cell: the all-done test over the cell's
        // lanes (a branchless lane-parallel count over the
        // cyclesToTarget_ slab) and the t advance of the rotating
        // schedule.
        std::size_t stepping = 0;
        for (std::size_t c = 0; c < gn; ++c) {
            if (w.waveDone[c])
                continue;
            const std::uint64_t *ctt =
                cyclesToTarget_.data() + (g0 + c) * laneStride_;
            std::uint32_t live = 0;
            for (std::uint32_t k = 0; k < cores_; ++k)
                live += ctt[k] == 0;
            if (live == 0) {
                w.waveDone[c] = 1;
                --remaining;
                continue;
            }
            w.waveT[c] += kQuantum;
            w.waveRot[c] = 0;
            w.waveStepping[c] = 1;
            ++stepping;
        }

        // Drive every stepping cell through its quantum. A cell
        // parks when a lane reaches its LLC tag scan; at the end of
        // each sweep all parked probes — one per cell, all against
        // disjoint tag arrays — resolve in one gathered SIMD sweep,
        // and the next sweep resumes them.
        while (stepping > 0) {
            w.wavePendCell.clear();
            for (std::size_t c = 0; c < gn; ++c) {
                if (!w.waveStepping[c])
                    continue;
                const std::size_t base = (g0 + c) * laneStride_;
                bool parked = false;
                while (w.waveRot[c] < cores_) {
                    std::uint32_t k = w.waveFirst[c] + w.waveRot[c];
                    if (k >= cores_)
                        k -= cores_;
                    const std::size_t lane = base + k;
                    if (w.wavePhase[c] == kPhaseTop &&
                        clock_[lane] >= w.waveT[c]) {
                        ++w.waveRot[c];
                        continue;
                    }
                    parked = runLaneWave(w, c, lane, *w.waveUnc[c],
                                         k, w.waveT[c]);
                    if (parked)
                        break;
                    ++w.waveRot[c];
                }
                if (parked) {
                    w.wavePendCell.push_back(
                        static_cast<std::uint32_t>(c));
                } else {
                    w.waveStepping[c] = 0;
                    --stepping;
                    w.waveFirst[c] = w.waveFirst[c] + 1 == cores_
                                         ? 0
                                         : w.waveFirst[c] + 1;
                }
            }
            if (!w.wavePendCell.empty()) {
                w.waveProbe.clear();
                w.waveWay.resize(w.wavePendCell.size());
                for (const std::uint32_t c : w.wavePendCell)
                    w.waveProbe.push_back(
                        w.waveUnc[c]->llcProbe(w.wavePend[c]));
                tagscan::findMany(w.waveProbe.data(),
                                  w.waveProbe.size(),
                                  w.waveWay.data());
                if (probes_gathered)
                    probes_gathered->inc(w.waveProbe.size());
                for (std::size_t i = 0; i < w.wavePendCell.size();
                     ++i)
                    w.waveResume[w.wavePendCell[i]] = w.waveWay[i];
            }
        }
    }

    for (std::size_t c = 0; c < gn; ++c) {
        double *out = cellOut_[g0 + c];
        const std::size_t base = (g0 + c) * laneStride_;
        for (std::uint32_t k = 0; k < cores_; ++k)
            out[k] = static_cast<double>(targetUops_) /
                     static_cast<double>(cyclesToTarget_[base + k]);
    }
    w.waveUnc.clear();
}

bool
BadcoBatchRunner::runLaneWave(Worker &w, std::size_t slot,
                              std::size_t lane, Uncore &unc,
                              std::uint32_t core,
                              std::uint64_t until)
{
    // runLane() with a park point at every LLC access: identical
    // locals, identical step loop — change the two together. The
    // only divergence is *where* the tag scan happens (gathered by
    // the wave driver instead of inline in Uncore::access), which
    // accessBegin/accessFinish make structurally equivalent.
    std::uint64_t clk = clock_[lane];
    std::uint64_t tu = totalUops_[lane];
    std::size_t ni = nodeIdx_[lane];
    std::uint64_t seq = loadSeq_[lane];
    std::uint64_t omin = outMin_[lane];
    std::uint32_t ocnt = outCnt_[lane];
    std::uint64_t ctt = cyclesToTarget_[lane];
    const std::uint32_t window = laneWindow_[lane];
    const BadcoModel &model = *laneModel_[lane];
    const std::size_t ncount = model.nodeWeight.size();
    const std::uint32_t *nw = model.nodeWeight.data();
    const std::uint32_t *nu = model.nodeUops.data();
    const std::uint64_t *nv = model.nodeVaddr.data();
    const std::uint64_t *npc = model.nodePc.data();
    const std::uint8_t *nt = model.nodeType.data();
    const std::int64_t *nd = model.nodeDependsOn.data();
    std::uint64_t *ocomp =
        outComp_.data() +
        static_cast<std::size_t>(lane) * kMaxOutstanding;
    std::uint64_t *omark =
        outMark_.data() +
        static_cast<std::size_t>(lane) * kMaxOutstanding;
    std::uint64_t *lcomp =
        w.loadComp.data() + slot * w.loadStride + loadOff_[lane];

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
    const auto check_target = [&] {
        if (ctt != 0 || tu < targetUops_)
            return;
        std::uint64_t t = clk;
        for (std::uint32_t j = 0; j < ocnt; ++j)
            t = std::max(t, ocomp[j]);
        ctt = std::max<std::uint64_t>(t, 1);
    };

    // Resume a parked access: the gathered sweep's way index
    // finishes it, then the post-access tail of the interrupted
    // iteration (outstanding bookkeeping for loads, then
    // check_target / node advance) runs exactly as runLane's.
    if (w.wavePhase[slot] != kPhaseTop) {
        const std::uint64_t comp =
            unc.accessFinish(w.wavePend[slot], w.waveResume[slot]);
        ocomp[ocnt] = comp;
        omark[ocnt] = tu;
        ++ocnt;
        omin = std::min(omin, comp);
        WSEL_ASSERT(seq < model.loadCount,
                    "load numbering overflow");
        lcomp[seq++] = comp;
        w.wavePhase[slot] = kPhaseTop;
        check_target();
        ++ni;
    }

    bool parked = false;
    while (clk < until) {
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

        clk += nw[i];
        tu += nu[i];
        expire();

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
            if (ocnt >= kMaxOutstanding) {
                if (omin > clk)
                    clk = omin;
                expire();
            }
            w.wavePend[slot] = unc.accessBegin(clk, core, vaddr,
                                               false, pc, false);
            w.wavePhase[slot] = kPhaseLoad;
            parked = true;
            break;
          }
          case BadcoReqType::Store:
            // Stores, prefetches and writebacks are fire-and-
            // forget: runLane discards their completion, so
            // nothing feeds back into the lane — run them inline
            // (uncore mutation order is identical either way) and
            // save the park/resume spill for the loads that need
            // their completion time.
            unc.access(clk, core, vaddr, true, pc, false);
            break;
          case BadcoReqType::Prefetch:
            unc.access(clk, core, vaddr, false, pc, true);
            break;
          case BadcoReqType::Writeback:
            unc.writeback(clk, core, vaddr);
            break;
        }
        if (parked)
            break;
        check_target();
        ++ni;
    }

    clock_[lane] = clk;
    totalUops_[lane] = tu;
    nodeIdx_[lane] = ni;
    loadSeq_[lane] = seq;
    outMin_[lane] = omin;
    outCnt_[lane] = ocnt;
    cyclesToTarget_[lane] = ctt;
    return parked;
}

} // namespace wsel
