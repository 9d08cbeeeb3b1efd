#include "badco/badco_model.hh"

#include "badco/badco_machine.hh"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "cpu/detailed_core.hh"
#include "mem/uncore.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "trace/trace_store.hh"

namespace wsel
{

namespace
{

constexpr std::uint32_t kMagic = 0xbadc0de2;

template <typename T>
void
put(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
get(std::istream &is)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    if (!is)
        WSEL_FATAL("truncated BADCO model stream");
    return v;
}

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
BadcoModel::save(std::ostream &os) const
{
    put(os, kMagic);
    const std::uint32_t name_len =
        static_cast<std::uint32_t>(benchmark.size());
    put(os, name_len);
    os.write(benchmark.data(), name_len);
    put(os, traceUops);
    put(os, intrinsicCycles);
    put(os, tailWeight);
    put(os, tailUops);
    put(os, loadCount);
    put(os, window);
    const std::uint64_t n = nodes.size();
    put(os, n);
    for (const BadcoNode &node : nodes) {
        put(os, node.weight);
        put(os, node.uops);
        put(os, node.uopSeq);
        put(os, node.req.vaddr);
        put(os, node.req.pc);
        put(os, node.req.type);
        put(os, node.req.dependsOn);
    }
}

BadcoModel
BadcoModel::load(std::istream &is)
{
    if (get<std::uint32_t>(is) != kMagic)
        WSEL_FATAL("not a BADCO model stream (bad magic)");
    BadcoModel m;
    const std::uint32_t name_len = get<std::uint32_t>(is);
    // Bound-check counts before allocating: a bit-flipped length
    // field must not turn into a multi-gigabyte resize.
    if (name_len > 4096)
        WSEL_FATAL("BADCO model stream has implausible name length "
                   << name_len);
    m.benchmark.resize(name_len);
    is.read(m.benchmark.data(), name_len);
    if (!is)
        WSEL_FATAL("truncated BADCO model stream");
    m.traceUops = get<std::uint64_t>(is);
    m.intrinsicCycles = get<std::uint64_t>(is);
    m.tailWeight = get<std::uint64_t>(is);
    m.tailUops = get<std::uint64_t>(is);
    m.loadCount = get<std::uint64_t>(is);
    m.window = get<std::uint32_t>(is);
    const std::uint64_t n = get<std::uint64_t>(is);
    if (n > (1ULL << 32))
        WSEL_FATAL("BADCO model stream has implausible node count "
                   << n);
    m.nodes.resize(n);
    for (BadcoNode &node : m.nodes) {
        node.weight = get<std::uint32_t>(is);
        node.uops = get<std::uint32_t>(is);
        node.uopSeq = get<std::uint64_t>(is);
        node.req.vaddr = get<std::uint64_t>(is);
        node.req.pc = get<std::uint64_t>(is);
        node.req.type = get<BadcoReqType>(is);
        node.req.dependsOn = get<std::int64_t>(is);
    }
    m.finalize();
    return m;
}

void
BadcoModel::saveFile(const std::string &path) const
{
    // Serialize in memory and replace the file atomically so a
    // crash mid-save cannot leave a half-written model behind.
    std::ostringstream os(std::ios::binary);
    save(os);
    persist::atomicWriteFile(path, os.str());
}

BadcoModel
BadcoModel::loadFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        WSEL_FATAL("cannot open '" << path << "' for reading");
    return load(is);
}

} // namespace wsel
