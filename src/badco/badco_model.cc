#include "badco/badco_model.hh"

#include "badco/badco_machine.hh"

#include "cpu/detailed_core.hh"
#include "mem/uncore.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "trace/trace_store.hh"

namespace wsel
{

namespace
{

constexpr char kModelMagic[8] = {'W', 'S', 'B', 'A',
                                 'D', 'C', 'O', 'M'};
constexpr std::uint32_t kModelVersion = 1;

/** Encoded bytes of one node (see BadcoModel::save). */
constexpr std::size_t kNodeBytes = 4 + 4 + 8 + 8 + 8 + 1 + 8;

/** Observer that accumulates the request stream into a model. */
class ModelRecorder : public CoreObserver
{
  public:
    explicit ModelRecorder(BadcoModel &model) : model_(model) {}

    void
    onUncoreRequest(const UncoreRequestEvent &ev) override
    {
        // Ignore activity past the modelled slice (restarted-thread
        // execution of the builder run) — but keep the data-load
        // numbering aligned with the core's, since loads can retire
        // out of emission order around the slice boundary.
        if (ev.uopSeq >= model_.traceUops) {
            if (!ev.isWriteback && !ev.isPrefetch && !ev.isWrite &&
                !ev.isInstruction) {
                dataLoadToModelLoad_.push_back(-1);
            }
            return;
        }

        BadcoNode node;
        node.uopSeq = ev.uopSeq;
        node.weight = static_cast<std::uint32_t>(
            ev.issueCycle > lastIssue_ ? ev.issueCycle - lastIssue_
                                       : 0);
        node.uops = static_cast<std::uint32_t>(
            ev.uopSeq > lastUop_ ? ev.uopSeq - lastUop_ : 0);
        lastIssue_ = std::max(lastIssue_, ev.issueCycle);
        lastUop_ = std::max(lastUop_, ev.uopSeq);

        BadcoRequest &req = node.req;
        req.vaddr = ev.vaddr;
        req.pc = ev.pc;
        if (ev.isWriteback) {
            req.type = BadcoReqType::Writeback;
        } else if (ev.isPrefetch) {
            req.type = BadcoReqType::Prefetch;
        } else if (ev.isWrite) {
            req.type = BadcoReqType::Store;
        } else {
            req.type = BadcoReqType::Load;
            if (!ev.isInstruction) {
                // Map the core's data-load numbering onto the
                // model's load numbering.
                if (ev.dependsOn >= 0) {
                    WSEL_ASSERT(static_cast<std::size_t>(
                                    ev.dependsOn) <
                                    dataLoadToModelLoad_.size(),
                                "dangling load dependency");
                    // -1 when the producer fell outside the slice.
                    req.dependsOn =
                        dataLoadToModelLoad_[ev.dependsOn];
                }
                dataLoadToModelLoad_.push_back(
                    static_cast<std::int64_t>(model_.loadCount));
            }
            ++model_.loadCount;
        }
        model_.nodes.push_back(node);
    }

    std::uint64_t lastIssue() const { return lastIssue_; }
    std::uint64_t lastUop() const { return lastUop_; }

  private:
    BadcoModel &model_;
    std::uint64_t lastIssue_ = 0;
    std::uint64_t lastUop_ = 0;
    std::vector<std::int64_t> dataLoadToModelLoad_;
};

} // namespace

namespace
{

/** Cycles of a detailed run against a constant-latency uncore. */
std::uint64_t
detailedCyclesAt(const BenchmarkProfile &profile,
                 const CoreConfig &core_cfg,
                 std::uint64_t target_uops, std::uint32_t latency,
                 std::uint64_t seed, BadcoModel *model,
                 ModelRecorder *recorder)
{
    PerfectUncore uncore(latency);
    DetailedCore core(core_cfg, TraceStore::global().cursor(profile),
                      uncore, 0, target_uops, seed);
    if (recorder)
        core.setObserver(recorder);
    runToTarget(core);
    (void)model;
    return core.stats().cyclesToTarget;
}

/** Cycles of a BADCO replay against a constant-latency uncore. */
std::uint64_t
replayCyclesAt(const BadcoModel &model, std::uint32_t latency,
               std::uint64_t target_uops, std::uint32_t window)
{
    PerfectUncore uncore(latency);
    BadcoMachine machine(model, uncore, 0, target_uops, window);
    while (!machine.reachedTarget())
        machine.run(machine.localClock() + 100000);
    return machine.stats().cyclesToTarget;
}

} // namespace

BadcoModel
buildBadcoModel(const BenchmarkProfile &profile,
                const CoreConfig &core_cfg,
                std::uint64_t target_uops,
                std::uint32_t llc_hit_latency, std::uint64_t seed,
                std::uint32_t slow_extra_latency)
{
    BadcoModel model;
    model.benchmark = profile.name;
    model.traceUops = target_uops;

    // First trace: perfect uncore. Gives node weights, the request
    // stream, and dataflow dependencies.
    ModelRecorder recorder(model);
    model.intrinsicCycles = detailedCyclesAt(
        profile, core_cfg, target_uops, llc_hit_latency, seed,
        &model, &recorder);
    model.tailWeight =
        model.intrinsicCycles > recorder.lastIssue()
            ? model.intrinsicCycles - recorder.lastIssue()
            : 0;
    model.tailUops = target_uops > recorder.lastUop()
                         ? target_uops - recorder.lastUop()
                         : 0;

    // The calibration replays below run BadcoMachines, which walk
    // the SoA view.
    model.finalize();

    // Second trace: uniformly slow uncore. Calibrates the effective
    // window so the replay reproduces the detailed core's
    // sensitivity to uncore latency (its real MLP).
    const std::uint32_t slow =
        llc_hit_latency + slow_extra_latency;
    const std::uint64_t t_slow = detailedCyclesAt(
        profile, core_cfg, target_uops, slow, seed, nullptr,
        nullptr);

    std::uint32_t best_w = 1;
    std::uint64_t best_err = UINT64_MAX;
    std::uint32_t lo = 1, hi = 512;
    while (lo <= hi) {
        const std::uint32_t mid = (lo + hi) / 2;
        const std::uint64_t t =
            replayCyclesAt(model, slow, target_uops, mid);
        const std::uint64_t err =
            t > t_slow ? t - t_slow : t_slow - t;
        if (err < best_err) {
            best_err = err;
            best_w = mid;
        }
        // Larger windows mean fewer stalls, i.e. fewer cycles.
        if (t > t_slow)
            lo = mid + 1;
        else {
            if (mid == 0)
                break;
            hi = mid - 1;
        }
    }
    model.window = best_w;
    return model;
}

void
BadcoModel::finalize()
{
    if (finalized)
        return;
    const std::size_t n = nodes.size();
    nodeWeight.reserve(n);
    nodeUops.reserve(n);
    nodeVaddr.reserve(n);
    nodePc.reserve(n);
    nodeType.reserve(n);
    nodeDependsOn.reserve(n);
    for (const BadcoNode &node : nodes) {
        nodeWeight.push_back(node.weight);
        nodeUops.push_back(node.uops);
        nodeVaddr.push_back(node.req.vaddr);
        nodePc.push_back(node.req.pc);
        nodeType.push_back(
            static_cast<std::uint8_t>(node.req.type));
        nodeDependsOn.push_back(node.req.dependsOn);
    }
    finalized = true;
}

void
BadcoModel::save(const std::string &path) const
{
    persist::Writer w(kModelMagic, kModelVersion,
                      64 + benchmark.size() + kNodeBytes * nodes.size());
    w.str(benchmark);
    w.u64(traceUops);
    w.u64(intrinsicCycles);
    w.u64(tailWeight);
    w.u64(tailUops);
    w.u64(loadCount);
    w.u32(window);
    w.u64(nodes.size());
    for (const BadcoNode &node : nodes) {
        w.u32(node.weight);
        w.u32(node.uops);
        w.u64(node.uopSeq);
        w.u64(node.req.vaddr);
        w.u64(node.req.pc);
        w.u8(static_cast<std::uint8_t>(node.req.type));
        w.u64(static_cast<std::uint64_t>(node.req.dependsOn));
    }
    w.seal(path);
}

BadcoModel
BadcoModel::load(const std::string &path)
{
    persist::Reader r = persist::Reader::open(path, kModelMagic,
                                              kModelVersion,
                                              "BADCO model");
    BadcoModel m;
    m.benchmark = r.str();
    m.traceUops = r.u64();
    m.intrinsicCycles = r.u64();
    m.tailWeight = r.u64();
    m.tailUops = r.u64();
    m.loadCount = r.u64();
    m.window = r.u32();
    m.nodes.resize(r.count(r.u64(), r.remaining() / kNodeBytes,
                           "node count"));
    for (BadcoNode &node : m.nodes) {
        node.weight = r.u32();
        node.uops = r.u32();
        node.uopSeq = r.u64();
        node.req.vaddr = r.u64();
        node.req.pc = r.u64();
        const std::uint8_t type = r.u8();
        if (type > static_cast<std::uint8_t>(BadcoReqType::Writeback))
            r.fail("bad request type " + std::to_string(type));
        node.req.type = static_cast<BadcoReqType>(type);
        node.req.dependsOn = static_cast<std::int64_t>(r.u64());
    }
    r.expectEnd();
    m.finalize();
    return m;
}

} // namespace wsel
