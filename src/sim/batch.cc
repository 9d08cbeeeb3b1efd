#include "sim/batch.hh"

#include <algorithm>
#include <atomic>

#include "cache/tagscan.hh"
#include "exec/scheduler.hh"
#include "obs/metrics.hh"
#include "stats/logging.hh"

namespace wsel
{

BadcoBatchRunner::BadcoBatchRunner(
    std::span<const UncoreConfig> ucfgs, std::uint32_t cores,
    std::uint64_t target_uops,
    const std::vector<const BadcoModel *> &models, std::size_t jobs,
    std::atomic<std::uint64_t> *cells_done)
    : ucfgs_(ucfgs), cores_(cores), targetUops_(target_uops),
      models_(models), threads_(exec::resolveJobs(jobs)),
      capacity_(kCellsPerThread * threads_), cellsDone_(cells_done),
      workers_(threads_)
{
    if (cores_ == 0)
        WSEL_FATAL("need at least one core");
    if (targetUops_ == 0)
        WSEL_FATAL("target µop count cannot be zero");

    for (Worker &w : workers_) {
        w.lanes.resize(cores_);
        w.outComp.resize(std::size_t{cores_} * kMaxOutstanding);
        w.outMark.resize(std::size_t{cores_} * kMaxOutstanding);
    }
    cells_.reserve(capacity_);
    benches_.reserve(std::size_t{capacity_} * cores_);

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
    for (const std::uint32_t bench : benches) {
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
    }
    cells_.push_back({seed, policy, out_ipc});
    benches_.insert(benches_.end(), benches.begin(), benches.end());
}

void
BadcoBatchRunner::run()
{
    const std::size_t cells = cells_.size();
    if (cells == 0)
        return;
    const bool metrics = obs::metricsEnabled();
    obs::Gauge *lanes_active = nullptr;
    const std::size_t threads = std::min<std::size_t>(threads_, cells);
    if (metrics) {
        static obs::Counter &cellsC = obs::counter("batch.cells");
        static obs::Gauge &lanesG =
            obs::gauge("batch.lanes_active");
        cellsC.inc(cells);
        lanes_active = &lanesG;
        lanesG.set(static_cast<double>(cells * cores_));
    }

    // Each thread claims the next unclaimed cell until none is
    // left. Which thread runs which cell, and in what order, is
    // unobservable: cells share nothing, and each writes only its
    // thread's machine state and its own output slot.
    std::atomic<std::size_t> next{0};
    const auto drain = [&](std::size_t t) {
        Worker &w = workers_[t];
        for (std::size_t c = next.fetch_add(1); c < cells;
             c = next.fetch_add(1)) {
            runCell(w, c);
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
    cells_.clear();
    benches_.clear();
}

void
BadcoBatchRunner::runCell(Worker &w, std::size_t c)
{
    // The cell runs to completion under the rotating-quantum
    // schedule (runBadcoQuanta), which keeps one uncore's working
    // set hot per thread.
    const Cell &cell = cells_[c];
    const std::uint32_t *benches = benches_.data() + c * cores_;
    std::size_t loads = 0;
    for (std::uint32_t k = 0; k < cores_; ++k)
        loads += models_[benches[k]]->loadCount;
    if (w.loadComp.size() < loads)
        w.loadComp.resize(loads);
    std::uint64_t *lcomp = w.loadComp.data();
    for (std::uint32_t k = 0; k < cores_; ++k) {
        const BadcoModel &model = *models_[benches[k]];
        BadcoLane &l = w.lanes[k];
        l = BadcoLane{};
        l.model = &model;
        l.outComp = w.outComp.data() + k * kMaxOutstanding;
        l.outMark = w.outMark.data() + k * kMaxOutstanding;
        l.loadComp = lcomp;
        lcomp += model.loadCount;
        l.targetUops = targetUops_;
        l.core = k;
        l.window = model.window;
        l.maxOutstanding = kMaxOutstanding;
    }
    w.uncore.emplace(ucfgs_[cell.policy], cores_, cell.seed);
    runBadcoQuanta(
        cores_,
        [&](std::uint32_t k) -> BadcoLane & { return w.lanes[k]; },
        *w.uncore, kQuantum);
    for (std::uint32_t k = 0; k < cores_; ++k)
        cell.out[k] = static_cast<double>(targetUops_) /
                      static_cast<double>(w.lanes[k].cyclesToTarget);
    w.uncore.reset();
}

} // namespace wsel
