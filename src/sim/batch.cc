#include "sim/batch.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "cache/tagscan.hh"
#include "exec/scheduler.hh"
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

BadcoBatchRunner::BadcoBatchRunner(
    std::span<const UncoreConfig> ucfgs, std::uint32_t cores,
    std::uint64_t target_uops,
    const std::vector<const BadcoModel *> &models,
    std::uint32_t batch_cells, std::size_t jobs,
    std::atomic<std::uint64_t> *cells_done)
    : ucfgs_(ucfgs), cores_(cores), targetUops_(target_uops),
      models_(models),
      batchCells_(std::clamp<std::uint32_t>(batch_cells, 1,
                                            kMaxBatchCells)),
      threads_(exec::resolveJobs(jobs)),
      capacity_(batchCells_ * threads_), cellsDone_(cells_done),
      workers_(threads_)
{
    if (cores_ == 0)
        WSEL_FATAL("need at least one core");
    if (targetUops_ == 0)
        WSEL_FATAL("target µop count cannot be zero");

    const std::size_t lanes =
        static_cast<std::size_t>(capacity_) * cores_;
    cellSeed_.resize(capacity_);
    cellPolicy_.resize(capacity_);
    cellOut_.resize(capacity_);
    cellLoads_.resize(capacity_);
    lanes_.resize(lanes);
    outComp_.resize(lanes * kMaxOutstanding);
    outMark_.resize(lanes * kMaxOutstanding);

    if (obs::metricsEnabled())
        obs::gauge("batch.simd_path")
            .set(static_cast<double>(tagscan::activePath()));
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
    std::size_t loads = 0;
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
            static_cast<std::size_t>(b) * cores_ + k;
        // The load-completion region is bound in runCell(): it
        // belongs to whichever thread runs the cell.
        BadcoLane &l = lanes_[lane];
        l = BadcoLane{};
        l.model = &model;
        l.outComp = outComp_.data() + lane * kMaxOutstanding;
        l.outMark = outMark_.data() + lane * kMaxOutstanding;
        l.targetUops = targetUops_;
        l.core = k;
        l.window = model.window;
        l.maxOutstanding = kMaxOutstanding;
        loads += model.loadCount;
    }
    cellLoads_[b] = loads;
    ++cells_;
}

void
BadcoBatchRunner::run()
{
    if (cells_ == 0)
        return;
    const bool metrics = obs::metricsEnabled();
    obs::Gauge *lanes_active = nullptr;
    const std::size_t threads =
        std::min<std::size_t>(threads_, cells_);
    if (metrics) {
        static obs::Counter &cellsC = obs::counter("batch.cells");
        static obs::Gauge &lanesG =
            obs::gauge("batch.lanes_active");
        cellsC.inc(cells_);
        lanes_active = &lanesG;
        lanesG.set(static_cast<double>(cells_ * cores_));
    }

    // Each thread claims the next unclaimed cell until none is
    // left. Which thread runs which cell, and in what order, is
    // unobservable: cells share nothing, and each writes only its
    // own lanes and output slot.
    std::atomic<std::size_t> next{0};
    const auto drain = [&](std::size_t t) {
        Worker &w = workers_[t];
        for (std::size_t b = next.fetch_add(1); b < cells_;
             b = next.fetch_add(1)) {
            runCell(w, b);
            if (cellsDone_)
                cellsDone_->fetch_add(1, std::memory_order_relaxed);
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
    cells_ = 0;
}

void
BadcoBatchRunner::runCell(Worker &w, std::size_t b)
{
    // The cell runs to completion under the rotating-quantum
    // schedule of BadcoMulticoreSim::run, which keeps one uncore's
    // working set hot per thread.
    if (w.loadComp.size() < cellLoads_[b])
        w.loadComp.resize(cellLoads_[b]);
    w.uncore.emplace(ucfgs_[cellPolicy_[b]], cores_, cellSeed_[b]);
    Uncore &unc = *w.uncore;
    BadcoLane *lanes = lanes_.data() + b * cores_;
    std::uint64_t *lcomp = w.loadComp.data();
    for (std::uint32_t k = 0; k < cores_; ++k) {
        lanes[k].loadComp = lcomp;
        lcomp += lanes[k].model->loadCount;
    }
    std::uint64_t t = 0;
    std::uint32_t first = 0;
    for (;;) {
        bool all_done = true;
        for (std::uint32_t k = 0; k < cores_; ++k)
            all_done = all_done && lanes[k].cyclesToTarget != 0;
        if (all_done)
            break;
        t += kQuantum;
        for (std::uint32_t i = 0; i < cores_; ++i) {
            std::uint32_t k = first + i;
            if (k >= cores_)
                k -= cores_;
            if (lanes[k].clock < t)
                runBadcoLane(lanes[k], unc, t);
        }
        first = first + 1 == cores_ ? 0 : first + 1;
    }
    double *out = cellOut_[b];
    for (std::uint32_t k = 0; k < cores_; ++k)
        out[k] = static_cast<double>(targetUops_) /
                 static_cast<double>(lanes[k].cyclesToTarget);
    w.uncore.reset();
}

} // namespace wsel
