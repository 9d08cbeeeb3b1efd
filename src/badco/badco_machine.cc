#include "badco/badco_machine.hh"

namespace wsel
{

BadcoMachine::BadcoMachine(const BadcoModel &model, UncoreIf &uncore,
                           std::uint32_t core_id,
                           std::uint64_t target_uops,
                           std::uint32_t window,
                           std::uint32_t max_outstanding)
    : uncore_(uncore), outComp_(max_outstanding),
      outMark_(max_outstanding), loadComp_(model.loadCount)
{
    if (model.traceUops == 0 || model.intrinsicCycles == 0)
        WSEL_FATAL("empty BADCO model for " << model.benchmark);
    if (max_outstanding == 0 || (window == 0 && model.window == 0))
        WSEL_FATAL("degenerate BADCO machine limits");
    if (!model.finalized)
        WSEL_FATAL("BADCO model for " << model.benchmark
                   << " was not finalize()d");
    lane_.model = &model;
    lane_.outComp = outComp_.data();
    lane_.outMark = outMark_.data();
    lane_.loadComp = loadComp_.data();
    lane_.targetUops = target_uops;
    lane_.core = core_id;
    lane_.window = window == 0 ? model.window : window;
    lane_.maxOutstanding = max_outstanding;
}

double
BadcoMachine::ipc() const
{
    if (lane_.cyclesToTarget == 0)
        return 0.0;
    return static_cast<double>(lane_.targetUops) /
           static_cast<double>(lane_.cyclesToTarget);
}

} // namespace wsel
