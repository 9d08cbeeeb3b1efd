/**
 * @file
 * wsel command-line interface: drive the paper's methodology from a
 * shell.
 *
 *   wsel_cli characterize [--cores K] [--insns N] [--jobs N]
 *       [--metrics-out FILE] [--trace-out FILE] [--trace-mem MIB]
 *       per-benchmark features and automatic vs Table-IV classes
 *   wsel_cli campaign --out DIR [--cores K] [--insns N]
 *       [--policies LRU,DIP,...] [--limit N] [--resume 0|1]
 *       [--jobs N] [--metrics-out FILE] [--trace-out FILE]
 *       [--trace-mem MIB]
 *       run a BADCO population campaign (or a --limit N sample of
 *       it) and save it as a campaign_v3 directory;
 *       progress checkpoints to DIR.partial and, by default, an
 *       interrupted run resumes from it (--resume 0 restarts);
 *       --jobs N simulates cells on N worker threads (default 0 =
 *       $WSEL_JOBS, else all hardware threads; the result is
 *       bitwise identical to --jobs 1, see docs/PARALLELISM.md);
 *       --metrics-out writes the metrics snapshot as JSON and
 *       --trace-out a Chrome/Perfetto trace on exit
 *       (docs/OBSERVABILITY.md; $WSEL_METRICS and $WSEL_TRACE set
 *       the same outputs for every command);
 *       --trace-mem caps the shared trace store's resident chunk
 *       memory in MiB (default 512; $WSEL_TRACE_MEM sets the same
 *       budget, see docs/PERFORMANCE.md)
 *   wsel_cli population --out DIR [--cores K] [--insns N]
 *       [--policies LRU,DIP,...] [--shard-size CELLS] [--jobs N]
 *       [--first R] [--last R|--limit N] [--resume 0|1]
 *       [--metric IPCT|WSU|HSU|GSU] [--verbose 1]
 *       run a full-population (or rank-range) BADCO campaign,
 *       streaming cells into a sharded binary campaign_v3
 *       directory (docs/PERFORMANCE.md, "Population campaigns")
 *       with O(shard) memory, and print the streamed per-pair
 *       d(w) statistics (mean, sigma, cv, 1/cv, eq. 8 sample
 *       size, approximate stratum count); an interrupted run
 *       resumes at shard granularity (--resume 0 restarts);
 *       with --distributed N the campaign instead runs through
 *       the crash-resilient campaign service: an in-process
 *       coordinator leases shards to N spawned wsel_worker
 *       processes, each running its shards on --jobs threads, and
 *       --out is the content-addressed result-store root
 *       (docs/ROBUSTNESS.md, "Distributed campaigns");
 *       with --sequential 1 (and --policies Y,X) the campaign is
 *       driven by the adaptive stopping rule instead of the full
 *       population (equivalent to the adaptive command below);
 *       with --hybrid 1 it runs the mixed-fidelity campaign
 *       (equivalent to the hybrid command below)
 *   wsel_cli adaptive --out DIR [--x POL --y POL] [--metric M]
 *       [--cores K] [--insns N] [--target C] [--budget W]
 *       [--min W] [--batch W] [--jobs N]
 *       [--method random|ranked-set] [--set-size M] [--redraws N]
 *       [--wall-clock SECS] [--resume 0|1] [--seed S]
 *       sequential campaign: simulate deterministic batches of W
 *       workloads and stop when the eq. 5 confidence in the
 *       leading policy crosses the target (default 0.977) or the
 *       budget runs out (docs/SAMPLING.md); --method ranked-set
 *       spends a cheap 2B-cell pre-pass to rank candidates; an
 *       interrupted run resumes bitwise identically (--resume 0
 *       restarts)
 *   wsel_cli hybrid --out DIR [--x POL --y POL|--policies Y,X]
 *       [--metric M] [--cores K] [--insns N] [--limit N]
 *       [--first R] [--last R] [--shard-size CELLS] [--jobs N]
 *       [--quantile Q] [--budget-frac F] [--threshold T]
 *       [--batch-rows W] [--profile FILE] [--calibrate W]
 *       [--resume 0|1] [--seed S] [--batch-cells B]
 *       [--verbose 1]
 *       error-bounded mixed-fidelity campaign (docs/FIDELITY.md):
 *       BADCO sweep, then cells whose d(w) error interval
 *       straddles --threshold escalate to the detailed simulator
 *       (at most --budget-frac of the population); the report
 *       separates eq. 5 sampling error from model error; the
 *       per-benchmark error profile is calibrated automatically
 *       from a --calibrate W detailed-vs-BADCO pair when missing
 *       and learns online from every escalated cell
 *   wsel_cli serve submit --socket PATH [--wait 0|1]
 *       [campaign options as for population]
 *       [--escalate-budget F] [--escalate-quantile Q]
 *       [--escalate-metric M]
 *       submit a campaign to a running wsel_serve daemon and (by
 *       default) wait for it; with --escalate-budget F > 0 the
 *       coordinator, after the BADCO sweep commits, re-leases the
 *       shards holding suspect rows at detailed fidelity using the
 *       error profile in its cache dir (docs/FIDELITY.md); serve
 *       status --socket PATH --id N polls one campaign, serve
 *       metrics --socket PATH dumps the daemon's metrics snapshot
 *       as JSON, and serve stop --socket PATH --id N halts a
 *       queued or running campaign (in-flight shards finish and
 *       stay in the store for dedup)
 *   wsel_cli analyze --campaign DIR --x POL --y POL
 *       [--metric IPCT|WSU|HSU|GSU]
 *       cv, 1/cv, eq.(8) sample size, §VII regime, CI estimates
 *   wsel_cli select --campaign DIR --x POL --y POL --size W
 *       [--metric M] [--method random|balanced|bench|workload]
 *       emit a workload sample for a detailed simulator
 *   wsel_cli confidence --campaign DIR --x POL --y POL --size W
 *       [--metric M] [--draws D]
 *       model vs empirical confidence at the given sample size
 *   wsel_cli simulate --workload b1+b2+... [--policy LRU]
 *       [--insns N] [--detailed 1]
 *       run one multiprogram workload through the simulators
 *   wsel_cli report --campaign DIR --out FILE.md
 *       full pairwise markdown analysis of a saved campaign
 *   wsel_cli cache verify [--dir DIR] [--quarantine 0|1]
 *       validate every cached campaign directory and BADCO-model
 *       file in the cache directory (a campaign_v2 text file left
 *       by an older build counts as damaged); with --quarantine 1,
 *       rename damaged ones to *.corrupt
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "badco/badco_model.hh"
#include "core/classify/classify.hh"
#include "obs/obs.hh"
#include "core/report/report.hh"
#include "core/confidence/confidence.hh"
#include "core/sampling/sampling.hh"
#include "fidelity/calibrate.hh"
#include "fidelity/escalation.hh"
#include "fidelity/persist_fidelity.hh"
#include "serve/coordinator.hh"
#include "serve/protocol.hh"
#include "serve/spawn.hh"
#include "serve/worker.hh"
#include "sim/adaptive.hh"
#include "sim/campaign.hh"
#include "sim/hybrid.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "sim/characterize.hh"
#include "sim/model_store.hh"
#include "sim/multicore.hh"
#include "sim/population.hh"
#include "trace/trace_store.hh"

namespace
{

using namespace wsel;

/** Minimal --key value argument parser. */
class Args
{
  public:
    /** Parse --key value pairs from argv[start] onward. */
    Args(int argc, char **argv, int start = 2)
    {
        for (int i = start; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                WSEL_FATAL("expected --option, got '" << key << "'");
            key = key.substr(2);
            if (i + 1 >= argc)
                WSEL_FATAL("missing value for --" << key);
            kv_[key] = argv[++i];
        }
    }

    std::string
    get(const std::string &key, const std::string &def) const
    {
        auto it = kv_.find(key);
        return it == kv_.end() ? def : it->second;
    }

    /** --key as a whole unsigned decimal; anything else is fatal. */
    std::uint64_t
    getU64(const std::string &key, std::uint64_t def) const
    {
        auto it = kv_.find(key);
        if (it == kv_.end())
            return def;
        const std::string &v = it->second;
        errno = 0;
        char *end = nullptr;
        const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(v[0])) ||
            *end != '\0' || errno == ERANGE)
            WSEL_FATAL("--" << key << " wants an unsigned integer, got '"
                       << v << "'");
        return n;
    }

    bool has(const std::string &key) const
    {
        return kv_.count(key) != 0;
    }

  private:
    std::map<std::string, std::string> kv_;
};

/** --key as a whole finite number; anything else is fatal. */
double
argF64(const Args &args, const std::string &key, double def)
{
    if (!args.has(key))
        return def;
    const std::string v = args.get(key, "");
    char *end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])) ||
        *end != '\0' || !std::isfinite(x))
        WSEL_FATAL("--" << key << " wants a finite number, got '" << v
                   << "'");
    return x;
}

/**
 * Eq. 8's random-sample size for @p cv, or "-" when cv is not finite
 * (every d(w) of the pair is zero, so cv is 0/0).
 */
std::string
eq8Size(double cv)
{
    return std::isfinite(cv) ? std::to_string(requiredSampleSize(cv))
                             : "-";
}

std::vector<PolicyKind>
parsePolicyList(const std::string &s)
{
    std::vector<PolicyKind> out;
    std::string cur;
    for (char c : s + ",") {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(parsePolicyKind(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    return out;
}

/**
 * The compared pair of a two-policy command, as {x, y}: --x/--y, or
 * the population command's --policies Y,X (oriented as its pair
 * labels: "first outperforms second").  @p kind names the campaign
 * in the error.
 */
std::pair<PolicyKind, PolicyKind>
policyPairFromArgs(const Args &args, const char *kind)
{
    if (!args.has("policies"))
        return {parsePolicyKind(args.get("x", "FIFO")),
                parsePolicyKind(args.get("y", "LRU"))};
    const auto pol = parsePolicyList(args.get("policies", ""));
    if (pol.size() != 2)
        WSEL_FATAL("a " << kind << " campaign compares exactly two "
                   "policies (--policies Y,X; got "
                   << pol.size() << ")");
    return {pol[1], pol[0]};
}

/**
 * The --first/--last/--limit rank range of @p pop as {first, last},
 * last 0 meaning the end: --limit N stands for --last first + N
 * (capped at the population) unless --last is given.
 */
std::pair<std::uint64_t, std::uint64_t>
rankRangeFromArgs(const Args &args, const WorkloadPopulation &pop)
{
    const std::uint64_t first = args.getU64("first", 0);
    std::uint64_t last = args.getU64("last", 0);
    if (args.has("limit") && !args.has("last"))
        last = std::min<std::uint64_t>(
            pop.size(), first + args.getU64("limit", 0));
    return {first, last};
}

/**
 * Observability for the simulation commands: metrics are always
 * collected (the verbose campaign summary prints the scheduler
 * section), and --metrics-out/--trace-out route the end-of-run
 * snapshot and trace (docs/OBSERVABILITY.md).
 */
void
setupObs(const Args &args)
{
    obs::enableMetrics();
    if (args.has("metrics-out"))
        obs::setMetricsOutput(args.get("metrics-out", ""));
    if (args.has("trace-out")) {
        if (!obs::tracingEnabled())
            obs::enableTracing();
        obs::setTraceOutput(args.get("trace-out", ""));
    }
    if (args.has("trace-mem"))
        TraceStore::global().setBudgetBytes(
            args.getU64("trace-mem", 512) << 20);
}

int
cmdCharacterize(const Args &args)
{
    setupObs(args);
    const std::uint32_t cores =
        static_cast<std::uint32_t>(args.getU64("cores", 4));
    const std::uint64_t insns = args.getU64("insns", 100000);
    const auto &suite = spec2006Suite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(cores, PolicyKind::LRU);

    const std::size_t jobs =
        static_cast<std::size_t>(args.getU64("jobs", 0));

    std::printf("characterizing %zu benchmarks (%llu uops, %u-core "
                "uncore)...\n\n",
                suite.size(),
                static_cast<unsigned long long>(insns), cores);
    const auto feats = characterizeSuite(suite, CoreConfig{}, ucfg,
                                         insns, 1, jobs);

    Rng rng(1);
    const auto auto_cls = classifyByFeatures(
        featureMatrix(feats), 3, BenchmarkFeatures::kLlcMpkiColumn,
        rng);

    std::printf("%-12s %6s %8s %8s %7s %8s %8s %8s\n", "benchmark",
                "IPC", "dl1MPKI", "llcMPKI", "brMPR", "tableIV",
                "mpki-cls", "auto-cls");
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &f = feats[i];
        std::printf("%-12s %6.3f %8.2f %8.2f %6.1f%% %8s %8s %8u\n",
                    f.name.c_str(), f.ipc, f.dl1Mpki, f.llcMpki,
                    100.0 * f.branchMispredictRate,
                    toString(suite[i].paperClass).c_str(),
                    toString(classifyMpki(f.llcMpki)).c_str(),
                    auto_cls[i]);
    }
    return 0;
}

int
cmdCampaign(const Args &args)
{
    setupObs(args);
    if (!args.has("out"))
        WSEL_FATAL("campaign requires --out DIR");
    const std::string out = args.get("out", "");
    // Refuse an unusable --out before any cell runs, not after.
    checkCampaignTarget(out);
    const std::uint32_t cores =
        static_cast<std::uint32_t>(args.getU64("cores", 4));
    const std::uint64_t insns = args.getU64("insns", 100000);
    const std::size_t limit =
        static_cast<std::size_t>(args.getU64("limit", 0));
    const auto policies = parsePolicyList(
        args.get("policies", "LRU,RND,FIFO,DIP,DRRIP"));

    const auto &suite = spec2006Suite();
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), cores);
    WorkloadSet workloads;
    if (limit == 0 || limit >= pop.size()) {
        // Rank-based set: the full population without an O(N)
        // vector of Workloads.
        workloads = WorkloadSet::fullPopulation(pop);
    } else {
        Rng rng(2013);
        std::vector<std::uint64_t> ranks;
        ranks.reserve(limit);
        for (std::size_t i :
             rng.sampleWithoutReplacement(
                 static_cast<std::size_t>(pop.size()), limit))
            ranks.push_back(i);
        workloads = WorkloadSet::fromRanks(pop, std::move(ranks));
    }

    const UncoreConfig ucfg =
        UncoreConfig::forCores(cores, PolicyKind::LRU);
    BadcoModelStore store(CoreConfig{}, insns, ucfg.llcHitLatency,
                          defaultCacheDir());
    CampaignOptions opts;
    opts.verbose = true;
    // 0 = auto: $WSEL_JOBS when set, else all hardware threads.
    opts.jobs = static_cast<std::size_t>(args.getU64("jobs", 0));
    // Checkpoint each finished shard so a killed campaign can pick
    // up where it left off (--resume 0 restarts).
    opts.checkpointDir = out + ".partial";
    if (args.getU64("resume", 1) == 0) {
        std::error_code ec;
        std::filesystem::remove_all(opts.checkpointDir, ec);
    }
    const Campaign c = runBadcoCampaign(workloads, policies, cores,
                                        insns, store, suite, opts);
    c.save(out);
    {
        std::error_code ec;
        std::filesystem::remove_all(opts.checkpointDir, ec);
    }
    std::printf("saved %zu workloads x %zu policies to %s "
                "(%.1f MIPS)\n",
                c.workloads.size(), c.policies.size(), out.c_str(),
                c.mips());
    return 0;
}

/**
 * CampaignSpec from the shared population/campaign options: the
 * wire-level description a coordinator and its workers rebuild the
 * campaign context from.
 */
serve::CampaignSpec
campaignSpecFromArgs(const Args &args)
{
    serve::CampaignSpec spec;
    spec.cores =
        static_cast<std::uint32_t>(args.getU64("cores", 4));
    spec.targetUops = args.getU64("insns", 100000);
    spec.seed = args.getU64("seed", 1);
    const auto policies = parsePolicyList(
        args.get("policies", "LRU,RND,FIFO,DIP,DRRIP"));
    for (PolicyKind p : policies)
        spec.policies.push_back(toString(p));
    const auto &suite = spec2006Suite();
    for (const BenchmarkProfile &p : suite)
        spec.benchmarks.push_back(p.name);
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), spec.cores);
    std::tie(spec.firstRank, spec.lastRank) =
        rankRangeFromArgs(args, pop);
    const std::uint64_t shard_cells =
        args.getU64("shard-size", 64 * 1024);
    spec.shardRows = std::max<std::uint64_t>(
        1, shard_cells / std::max<std::size_t>(1, policies.size()));
    // Mixed-fidelity escalation (docs/FIDELITY.md): with
    // --escalate-budget F > 0 the coordinator re-leases suspect
    // shards at detailed fidelity after the BADCO sweep commits.
    spec.fidelity =
        static_cast<std::uint32_t>(args.getU64("fidelity", 0));
    spec.escalateBudget = argF64(args, "escalate-budget", 0.0);
    spec.escalateQuantile =
        argF64(args, "escalate-quantile", 0.9);
    spec.escalateMetric =
        args.get("escalate-metric", args.get("metric", "IPCT"));
    return spec;
}

void
printServeStatus(std::uint64_t id, const serve::StatusMsg &st)
{
    std::printf("campaign %llu: %s  (%llu/%llu shards, "
                "%llu deduped, %llu quarantined, %llu leases "
                "active)\n",
                static_cast<unsigned long long>(id),
                serve::toString(st.state),
                static_cast<unsigned long long>(st.shardsDone),
                static_cast<unsigned long long>(st.shardsTotal),
                static_cast<unsigned long long>(st.shardsDeduped),
                static_cast<unsigned long long>(
                    st.shardsQuarantined),
                static_cast<unsigned long long>(st.leasesActive));
    if (!st.dir.empty())
        std::printf("  dir: %s\n", st.dir.c_str());
    if (!st.message.empty())
        std::printf("  %s\n", st.message.c_str());
}

/**
 * `population --distributed N`: run the campaign through the
 * coordinator/worker service instead of in process — an
 * in-process coordinator loop plus N spawned wsel_worker
 * processes, each passed this command's --jobs.  --out is the
 * result-store ROOT; the campaign lands in a content-addressed
 * directory under it (printed on completion), so resubmitting the
 * same campaign — or an overlapping one — reuses every shard
 * already present.
 */
int
cmdPopulationDistributed(const Args &args)
{
    setupObs(args);
    if (!args.has("out"))
        WSEL_FATAL("population requires --out DIR (the result-"
                   "store root in --distributed mode)");
    const std::size_t nworkers =
        static_cast<std::size_t>(args.getU64("distributed", 4));
    if (nworkers == 0)
        WSEL_FATAL("--distributed needs at least 1 worker");

    const serve::CampaignSpec spec = campaignSpecFromArgs(args);
    serve::CoordinatorOptions copts;
    copts.socketPath =
        args.get("socket", "/tmp/wsel-serve-" +
                               std::to_string(::getpid()) +
                               ".sock");
    copts.storeRoot = args.get("out", "");
    copts.cacheDir = defaultCacheDir();
    // --jobs sizes the coordinator's model build and is forwarded
    // to every worker, which spreads each shard's cells over that
    // many threads.
    const std::size_t jobs =
        static_cast<std::size_t>(args.getU64("jobs", 0));
    copts.jobs = jobs;
    copts.lease.ttl =
        std::chrono::milliseconds(args.getU64("ttl-ms", 2000));
    copts.exitWhenIdle = true;

    // Resolve the worker binary before starting anything that
    // needs cleanup; a missing binary is a plain fatal error.
    const std::string worker_bin = serve::findWorkerBinary();

    serve::Coordinator coordinator(copts);
    std::thread loop([&coordinator] {
        try {
            coordinator.run();
        } catch (const std::exception &e) {
            warn(std::string("coordinator died: ") + e.what());
        }
    });

    int rc = 1;
    std::vector<pid_t> workers;
    try {
        for (std::size_t i = 0; i < nworkers; ++i)
            workers.push_back(serve::spawnProcess(
                {worker_bin, "--socket", copts.socketPath,
                 "--cache-dir", copts.cacheDir, "--jobs",
                 std::to_string(jobs)}));
        serve::Client client(copts.socketPath);
        const std::uint64_t id = client.submit(spec);
        std::printf("campaign %llu submitted to %zu workers\n",
                    static_cast<unsigned long long>(id),
                    nworkers);
        const serve::StatusMsg st = client.waitFinished(id);
        printServeStatus(id, st);
        rc = st.state == serve::CampaignState::Done ? 0 : 1;
        // Client goes out of scope here; the idle coordinator
        // exits and shuts the workers down.
    } catch (...) {
        coordinator.requestStop();
        for (pid_t pid : workers)
            (void)serve::waitProcess(pid);
        loop.join();
        throw;
    }
    for (pid_t pid : workers)
        (void)serve::waitProcess(pid);
    loop.join();
    return rc;
}

int
cmdServe(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: wsel_cli serve <submit|status|"
                     "metrics|stop> --socket PATH ...\n");
        return 2;
    }
    const std::string sub = argv[2];
    const Args args(argc, argv, 3);
    const std::string socket = args.get("socket", "");
    if (socket.empty())
        WSEL_FATAL("serve " << sub << " requires --socket PATH");
    serve::Client client(socket);
    if (sub == "submit") {
        const bool wait = args.getU64("wait", 1) != 0;
        const std::uint64_t id =
            client.submit(campaignSpecFromArgs(args));
        std::printf("campaign %llu accepted\n",
                    static_cast<unsigned long long>(id));
        if (wait) {
            const serve::StatusMsg st = client.waitFinished(id);
            printServeStatus(id, st);
            return st.state == serve::CampaignState::Done ? 0 : 1;
        }
        return 0;
    }
    if (sub == "status") {
        if (!args.has("id"))
            WSEL_FATAL("serve status requires --id N");
        const std::uint64_t id = args.getU64("id", 0);
        printServeStatus(id, client.status(id));
        return 0;
    }
    if (sub == "metrics") {
        std::printf("%s\n", client.metricsJson().c_str());
        return 0;
    }
    if (sub == "stop") {
        if (!args.has("id"))
            WSEL_FATAL("serve stop requires --id N");
        const std::uint64_t id = args.getU64("id", 0);
        const bool wait = args.getU64("wait", 0) != 0;
        const std::string msg = client.stop(id);
        std::printf("campaign %llu: %s\n",
                    static_cast<unsigned long long>(id),
                    msg.c_str());
        if (wait)
            printServeStatus(id, client.waitFinished(id));
        return 0;
    }
    std::fprintf(stderr, "unknown serve subcommand '%s'\n",
                 sub.c_str());
    return 2;
}

/**
 * `adaptive` (and `population --sequential 1`): drive the campaign
 * by the live stopping rule instead of a fixed cell count
 * (docs/SAMPLING.md).
 */
int
cmdAdaptive(const Args &args)
{
    setupObs(args);
    if (!args.has("out"))
        WSEL_FATAL("adaptive requires --out DIR");
    const std::string out = args.get("out", "");
    const std::uint32_t cores =
        static_cast<std::uint32_t>(args.getU64("cores", 4));
    const std::uint64_t insns = args.getU64("insns", 100000);
    const ThroughputMetric metric =
        parseMetric(args.get("metric", "IPCT"));

    const auto [x, y] = policyPairFromArgs(args, "sequential");

    const auto &suite = spec2006Suite();
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), cores);

    AdaptiveOptions opts;
    opts.seed = args.getU64("seed", 1);
    opts.jobs = static_cast<std::size_t>(args.getU64("jobs", 0));
    opts.batchWorkloads = args.getU64("batch", 64);
    opts.stop.targetConfidence = argF64(args, "target", 0.977);
    opts.stop.minWorkloads = args.getU64("min", 32);
    opts.stop.maxWorkloads = args.getU64("budget", 0);
    opts.wallClockBudget = argF64(args, "wall-clock", 0.0);
    opts.method =
        parseAdaptiveMethod(args.get("method", "random"));
    opts.setSize =
        static_cast<std::size_t>(args.getU64("set-size", 5));
    opts.subsampleRedraws =
        static_cast<std::size_t>(args.getU64("redraws", 256));
    opts.resume = args.getU64("resume", 1) != 0;
    opts.verbose = args.getU64("verbose", 0) != 0;
    opts.batchCells =
        static_cast<std::uint32_t>(args.getU64("batch-cells", 0));

    const UncoreConfig ucfg =
        UncoreConfig::forCores(cores, PolicyKind::LRU);
    BadcoModelStore store(CoreConfig{}, insns, ucfg.llcHitLatency,
                          defaultCacheDir());

    std::printf("adaptive campaign: %s vs %s (%s, %u cores, "
                "population %llu, method %s, target %.3f) -> %s\n",
                toString(y).c_str(), toString(x).c_str(),
                toString(metric).c_str(), cores,
                static_cast<unsigned long long>(pop.size()),
                toString(opts.method), opts.stop.targetConfidence,
                out.c_str());

    const AdaptiveResult r = runAdaptiveCampaign(
        pop, x, y, metric, insns, store, suite, out, opts);

    const std::string winner =
        r.verdict.yWins ? toString(y) : toString(x);
    std::printf("\nstopped: %s after %llu workloads "
                "(%llu batches)\n",
                toString(r.verdict.reason),
                static_cast<unsigned long long>(
                    r.verdict.workloads),
                static_cast<unsigned long long>(
                    r.decision.batches));
    std::printf("verdict: %s leads with confidence %.4f "
                "(cv %.3f, mean d %+.6f)\n",
                winner.c_str(), r.verdict.confidence, r.verdict.cv,
                r.d.mean());
    if (r.subsample.redraws > 0)
        std::printf("subsample cross-check: %zu redraws of %zu -> "
                    "win rate %.4f, sigma of means %.6f\n",
                    r.subsample.redraws, r.subsample.subsampleSize,
                    r.subsample.confidence,
                    r.subsample.stddevOfMeans);
    std::printf("cells: %llu simulated (%llu resumed, %llu "
                "pre-pass), %llu of the %llu-workload budget "
                "saved\n",
                static_cast<unsigned long long>(r.cellsSimulated),
                static_cast<unsigned long long>(r.cellsResumed),
                static_cast<unsigned long long>(r.prepassCells),
                static_cast<unsigned long long>(r.cellsSaved()),
                static_cast<unsigned long long>(
                    r.budgetWorkloads));
    return 0;
}

/**
 * `hybrid` (and `population --hybrid 1`): an error-bounded
 * mixed-fidelity X-vs-Y campaign (docs/FIDELITY.md).  A BADCO sweep
 * runs first; cells whose d(w) error interval straddles the
 * decision boundary are re-run on the detailed simulator, capped by
 * --budget-frac, and the final report separates sampling error from
 * model error.  The error profile lives beside the model cache
 * (--profile overrides) and is calibrated automatically from a
 * --calibrate W workload detailed-vs-BADCO pair when missing.
 */
int
cmdHybrid(const Args &args)
{
    setupObs(args);
    if (!args.has("out"))
        WSEL_FATAL("hybrid requires --out DIR");
    const std::string out = args.get("out", "");
    const std::uint32_t cores =
        static_cast<std::uint32_t>(args.getU64("cores", 4));
    const std::uint64_t insns = args.getU64("insns", 100000);
    const ThroughputMetric metric =
        parseMetric(args.get("metric", "IPCT"));

    const auto [x, y] = policyPairFromArgs(args, "hybrid");

    const auto &suite = spec2006Suite();
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), cores);

    HybridOptions opts;
    opts.seed = args.getU64("seed", 1);
    opts.jobs = static_cast<std::size_t>(args.getU64("jobs", 0));
    opts.shardCells = static_cast<std::size_t>(
        args.getU64("shard-size", 64 * 1024));
    std::tie(opts.firstRank, opts.lastRank) =
        rankRangeFromArgs(args, pop);
    opts.resume = args.getU64("resume", 1) != 0;
    opts.verbose = args.getU64("verbose", 0) != 0;
    opts.quantile = argF64(args, "quantile", 0.95);
    opts.budgetFraction = argF64(args, "budget-frac", 0.25);
    opts.threshold = argF64(args, "threshold", 0.0);
    opts.batchRows = args.getU64("batch-rows", 64);
    opts.batchCells =
        static_cast<std::uint32_t>(args.getU64("batch-cells", 0));
    // Before calibration runs its detailed cells.
    fidelity::checkEscalationKnobs(opts.quantile, opts.budgetFraction);

    const std::string profile_path = args.get(
        "profile", fidelity::errorProfilePath(defaultCacheDir()));
    const std::uint64_t suite_hash =
        fidelity::ErrorProfile::hashSuite(suite);
    fidelity::ErrorProfile profile;
    bool have_profile = false;
    if (std::filesystem::exists(profile_path)) {
        try {
            profile = fidelity::readErrorProfile(profile_path);
            have_profile = profile.suiteHash() == suite_hash;
            if (!have_profile)
                std::printf("error profile %s is for a different "
                            "suite; re-calibrating\n",
                            profile_path.c_str());
        } catch (const persist::CacheInvalid &e) {
            persist::quarantineArtifact(profile_path,
                                        "corrupt error profile",
                                        e.what(), "re-calibrating");
        }
    }
    if (!have_profile) {
        const std::size_t calib_w = static_cast<std::size_t>(
            args.getU64("calibrate", 24));
        std::printf("calibrating error profile: %zu workloads, "
                    "detailed vs BADCO (%u cores)...\n",
                    calib_w, cores);
        profile = fidelity::calibrateErrorProfile(
            cores, insns, calib_w, opts.seed, suite, {x, y},
            defaultCacheDir(), opts.jobs, opts.verbose);
        fidelity::writeErrorProfile(profile_path, profile);
        std::printf("calibrated from %llu samples -> %s\n",
                    static_cast<unsigned long long>(
                        profile.totalSamples()),
                    profile_path.c_str());
    }

    const UncoreConfig ucfg =
        UncoreConfig::forCores(cores, PolicyKind::LRU);
    BadcoModelStore store(CoreConfig{}, insns, ucfg.llcHitLatency,
                          defaultCacheDir());

    std::printf("hybrid campaign: %s vs %s (%s, %u cores, "
                "quantile %.2f, budget %.0f%%) -> %s\n",
                toString(y).c_str(), toString(x).c_str(),
                toString(metric).c_str(), cores, opts.quantile,
                100.0 * opts.budgetFraction, out.c_str());

    const HybridResult r = runHybridCampaign(
        pop, x, y, metric, insns, store, suite, profile, out,
        opts);
    if (r.profileUpdated)
        fidelity::writeErrorProfile(profile_path, profile);

    const fidelity::HybridReportRecord &rep = r.report;
    std::printf("\n%llu workloads, %llu escalated to detailed "
                "(%.1f%%; %llu cells simulated, %llu resumed)\n",
                static_cast<unsigned long long>(rep.workloads),
                static_cast<unsigned long long>(rep.escalated),
                100.0 * rep.escalationFraction,
                static_cast<unsigned long long>(
                    r.detailedCellsSimulated),
                static_cast<unsigned long long>(
                    r.detailedCellsResumed));
    std::printf("mean d = %+.6f  sigma = %.6f  cv = %.3f  "
                "eq.5 confidence = %.4f\n",
                rep.meanD, rep.sigma, rep.cv, rep.confidence);
    std::printf("model error in [%+.6f, %+.6f]; combined bound "
                "[%+.6f, %+.6f]\n",
                rep.modelLo, rep.modelHi, rep.comboLo, rep.comboHi);
    const bool decisive = rep.comboLo > opts.threshold ||
                          rep.comboHi < opts.threshold;
    std::printf("verdict: %s leads%s\n",
                (rep.yWins ? toString(y) : toString(x)).c_str(),
                decisive ? "" : " (combined bound straddles the "
                                "threshold; not decisive)");
    return 0;
}

int
cmdPopulation(const Args &args)
{
    if (args.getU64("sequential", 0) != 0)
        return cmdAdaptive(args);
    if (args.getU64("hybrid", 0) != 0)
        return cmdHybrid(args);
    if (args.has("distributed"))
        return cmdPopulationDistributed(args);
    setupObs(args);
    if (!args.has("out"))
        WSEL_FATAL("population requires --out DIR");
    const std::string out = args.get("out", "");
    const std::uint32_t cores =
        static_cast<std::uint32_t>(args.getU64("cores", 4));
    const std::uint64_t insns = args.getU64("insns", 100000);
    const auto policies = parsePolicyList(
        args.get("policies", "LRU,RND,FIFO,DIP,DRRIP"));
    const ThroughputMetric metric =
        parseMetric(args.get("metric", "IPCT"));

    const auto &suite = spec2006Suite();
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), cores);

    PopulationOptions opts;
    opts.seed = args.getU64("seed", 1);
    opts.jobs = static_cast<std::size_t>(args.getU64("jobs", 0));
    opts.shardCells = static_cast<std::size_t>(
        args.getU64("shard-size", 64 * 1024));
    std::tie(opts.firstRank, opts.lastRank) =
        rankRangeFromArgs(args, pop);
    opts.resume = args.getU64("resume", 1) != 0;
    opts.verbose = args.getU64("verbose", 0) != 0;
    opts.batchCells =
        static_cast<std::uint32_t>(args.getU64("batch-cells", 0));

    // Every ordered policy pair i<j, oriented "i outperforms j".
    std::vector<PopulationPairSpec> pairs;
    for (std::size_t i = 0; i < policies.size(); ++i) {
        for (std::size_t j = i + 1; j < policies.size(); ++j) {
            PopulationPairSpec s;
            s.y = i;
            s.x = j;
            s.metric = metric;
            s.label = toString(policies[i]) + ">" +
                      toString(policies[j]);
            pairs.push_back(std::move(s));
        }
    }

    const UncoreConfig ucfg =
        UncoreConfig::forCores(cores, PolicyKind::LRU);
    BadcoModelStore store(CoreConfig{}, insns, ucfg.llcHitLatency,
                          defaultCacheDir());

    const std::uint64_t last =
        opts.lastRank == 0 ? pop.size() : opts.lastRank;
    std::printf("population campaign: %llu of %llu workloads x "
                "%zu policies (%u cores) -> %s\n",
                static_cast<unsigned long long>(last -
                                                opts.firstRank),
                static_cast<unsigned long long>(pop.size()),
                policies.size(), cores, out.c_str());

    const PopulationResult r = runBadcoPopulationCampaign(
        pop, policies, insns, store, suite, pairs, out, opts);

    std::printf("\n%-12s %10s %10s %8s %8s %8s %7s\n", "pair",
                "mean d", "sigma", "cv", "1/cv", "eq8-W", "strata");
    for (const PopulationPairSummary &p : r.pairs) {
        const StreamedWorkloadStrata strata(
            p.sketch, p.d.count(), WorkloadStrataConfig{});
        std::printf("%-12s %+10.6f %10.6f %8.3f %8.3f %8s %7zu\n",
                    p.spec.label.c_str(), p.d.mean(),
                    p.d.stddevPopulation(), p.cv(), p.inverseCv(),
                    eq8Size(p.cv()).c_str(), strata.strataCount());
    }
    std::printf("\n%llu cells simulated (%llu resumed), "
                "%llu shards written (%llu reused), "
                "%.0f cells/sec, %.1f MiB\n",
                static_cast<unsigned long long>(r.cellsSimulated),
                static_cast<unsigned long long>(r.cellsResumed),
                static_cast<unsigned long long>(r.shardsWritten),
                static_cast<unsigned long long>(r.shardsResumed),
                r.cellsPerSec(),
                static_cast<double>(r.manifest.rows() *
                                    policies.size() * cores * 8) /
                    (1024.0 * 1024.0));
    return 0;
}

int
cmdCache(int argc, char **argv)
{
    if (argc < 3 || std::string(argv[2]) != "verify") {
        std::fprintf(stderr,
                     "usage: wsel_cli cache verify [--dir DIR] "
                     "[--quarantine 0|1]\n");
        return 2;
    }
    const Args args(argc, argv, 3);
    const std::string dir = args.get("dir", defaultCacheDir());
    if (dir.empty())
        WSEL_FATAL("no cache directory configured "
                   "(WSEL_CACHE_DIR is empty)");
    const bool quarantine = args.getU64("quarantine", 0) != 0;
    std::size_t ok = 0, corrupt = 0, checkpoints = 0;
    std::vector<std::filesystem::path> entries;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec))
        entries.push_back(it->path());
    if (ec)
        WSEL_FATAL("cannot read cache directory '" << dir
                   << "': " << ec.message());
    std::sort(entries.begin(), entries.end());
    for (const auto &path : entries) {
        const std::string name = path.filename().string();
        const std::string p = path.string();
        if (name.find(".corrupt") != std::string::npos ||
            name.find(".tmp.") != std::string::npos ||
            (name.size() >= 5 &&
             name.compare(name.size() - 5, 5, ".lock") == 0))
            continue;
        if (name.size() >= 8 &&
            name.compare(name.size() - 8, 8, ".partial") == 0) {
            ++checkpoints;
            std::printf("CHECKPOINT %s (interrupted campaign; will "
                        "resume on next run)\n",
                        p.c_str());
            continue;
        }
        const bool is_campaign = name.rfind("campaign_", 0) == 0;
        const bool is_model = name.rfind("badco_", 0) == 0 &&
                              name.size() >= 4 &&
                              name.compare(name.size() - 4, 4,
                                           ".bin") == 0;
        if (!is_campaign && !is_model)
            continue;
        std::string why;
        try {
            if (is_campaign) {
                const Campaign c = Campaign::load(p);
                std::printf("OK      %s (%s, %u cores, %zu policies "
                            "x %zu workloads)\n",
                            p.c_str(), c.simulator.c_str(), c.cores,
                            c.policies.size(), c.workloads.size());
            } else {
                const BadcoModel m = BadcoModel::load(p);
                std::printf("OK      %s (model '%s', %zu nodes)\n",
                            p.c_str(), m.benchmark.c_str(),
                            m.nodes.size());
            }
            ++ok;
            continue;
        } catch (const persist::CacheInvalid &e) {
            why = e.what();
        } catch (const FatalError &e) {
            why = e.what();
        }
        ++corrupt;
        if (quarantine) {
            const std::string moved = persist::quarantineFile(p);
            std::printf("CORRUPT %s -> %s\n  %s\n", p.c_str(),
                        moved.empty() ? "(quarantine failed)"
                                      : moved.c_str(),
                        why.c_str());
        } else {
            std::printf("CORRUPT %s\n  %s\n", p.c_str(),
                        why.c_str());
        }
    }
    std::printf("%zu ok, %zu corrupt, %zu resumable checkpoint%s\n",
                ok, corrupt, checkpoints, checkpoints == 1 ? "" : "s");
    return corrupt == 0 ? 0 : 1;
}

struct PairData
{
    Campaign campaign;
    ThroughputMetric metric;
    std::vector<double> tx, ty, d;
};

PairData
loadPair(const Args &args)
{
    if (!args.has("campaign"))
        WSEL_FATAL("this command requires --campaign DIR");
    PairData p{Campaign::load(args.get("campaign", "")),
               parseMetric(args.get("metric", "IPCT")),
               {},
               {},
               {}};
    const PolicyKind x = parsePolicyKind(args.get("x", "LRU"));
    const PolicyKind y = parsePolicyKind(args.get("y", "DIP"));
    p.tx = p.campaign.perWorkloadThroughputs(
        p.campaign.policyIndex(x), p.metric);
    p.ty = p.campaign.perWorkloadThroughputs(
        p.campaign.policyIndex(y), p.metric);
    p.d = perWorkloadDifferences(p.metric, p.tx, p.ty);
    return p;
}

int
cmdAnalyze(const Args &args)
{
    const PairData p = loadPair(args);
    const DifferenceStats ds = differenceStats(p.d);
    std::printf("workloads: %zu   metric: %s\n", p.tx.size(),
                toString(p.metric).c_str());
    std::printf("mean d(w) = %+.6f  sigma = %.6f  cv = %.3f  "
                "1/cv = %.3f\n",
                ds.mu, ds.sigma, ds.cv, ds.inverseCv());
    std::printf("eq.(8) random-sample size: %s\n",
                eq8Size(ds.cv).c_str());
    switch (classifyCv(ds.cv)) {
      case CvRegime::Equivalent:
        std::printf("regime: |cv| > 10 -> machines are "
                    "throughput-equivalent\n");
        break;
      case CvRegime::RandomSampling:
        std::printf("regime: |cv| < 2 -> (balanced) random "
                    "sampling suffices\n");
        break;
      case CvRegime::Stratification:
        std::printf("regime: 2 <= |cv| <= 10 -> use workload "
                    "stratification\n");
        break;
    }
    // Whole-population estimates with CIs for both configs.
    Sample whole;
    whole.strata.resize(1);
    whole.strata[0].weight = 1.0;
    for (std::size_t i = 0; i < p.tx.size(); ++i)
        whole.strata[0].indices.push_back(i);
    const auto ex = estimateThroughput(whole, p.metric, p.tx);
    const auto ey = estimateThroughput(whole, p.metric, p.ty);
    std::printf("T_x = %.4f [%.4f, %.4f]   T_y = %.4f "
                "[%.4f, %.4f]\n",
                ex.value, ex.lo, ex.hi, ey.value, ey.lo, ey.hi);
    return 0;
}

int
cmdSelect(const Args &args)
{
    const PairData p = loadPair(args);
    const std::size_t size = args.getU64("size", 30);
    const std::string method = args.get("method", "workload");
    Rng rng(args.getU64("seed", 1));

    std::unique_ptr<Sampler> sampler;
    if (method == "random") {
        sampler = makeRandomSampler(p.tx.size());
    } else if (method == "balanced") {
        const WorkloadPopulation pop(
            static_cast<std::uint32_t>(
                p.campaign.benchmarks.size()),
            p.campaign.cores);
        if (p.campaign.workloads.size() != pop.size())
            WSEL_FATAL("balanced sampling needs a full-population "
                       "campaign");
        std::vector<std::size_t> identity(pop.size());
        for (std::size_t i = 0; i < identity.size(); ++i)
            identity[i] = i;
        sampler = makeBalancedRandomSampler(pop, identity);
    } else if (method == "bench") {
        std::vector<std::uint32_t> cls;
        for (const auto &name : p.campaign.benchmarks)
            cls.push_back(static_cast<std::uint32_t>(
                findProfile(name).paperClass));
        sampler = makeBenchmarkStratifiedSampler(
            p.campaign.workloads, cls, 3);
    } else if (method == "workload") {
        sampler = makeWorkloadStratifiedSampler(p.d, {});
    } else {
        WSEL_FATAL("unknown method '" << method << "'");
    }

    const Sample s = sampler->draw(size, rng);
    std::printf("# method=%s size=%zu metric=%s\n",
                sampler->name().c_str(), s.totalSize(),
                toString(p.metric).c_str());
    std::printf("stratum,weight,benchmarks\n");
    for (std::size_t h = 0; h < s.strata.size(); ++h) {
        for (std::size_t idx : s.strata[h].indices) {
            const Workload &w = p.campaign.workloads[idx];
            std::printf("%zu,%.0f,", h, s.strata[h].weight);
            for (std::size_t k = 0; k < w.size(); ++k)
                std::printf("%s%s", k ? "+" : "",
                            p.campaign.benchmarks[w[k]].c_str());
            std::printf("\n");
        }
    }
    return 0;
}

int
cmdConfidence(const Args &args)
{
    const PairData p = loadPair(args);
    const std::size_t size = args.getU64("size", 30);
    const std::size_t draws = args.getU64("draws", 2000);
    const DifferenceStats ds = differenceStats(p.d);
    Rng rng(args.getU64("seed", 1));
    auto rnd = makeRandomSampler(p.tx.size());
    auto strat = makeWorkloadStratifiedSampler(p.d, {});
    std::printf("W=%zu  model(eq.5)=%.4f  random=%.4f  "
                "workload-strata=%.4f\n",
                size, modelConfidence(ds.cv, size),
                empiricalConfidence(*rnd, size, draws, p.metric,
                                    p.tx, p.ty, rng),
                empiricalConfidence(*strat, size, draws, p.metric,
                                    p.tx, p.ty, rng));
    return 0;
}

int
cmdSimulate(const Args &args)
{
    if (!args.has("workload"))
        WSEL_FATAL("simulate requires --workload b1+b2+...");
    const std::uint64_t insns = args.getU64("insns", 100000);
    const PolicyKind policy =
        parsePolicyKind(args.get("policy", "LRU"));
    const bool run_detailed = args.getU64("detailed", 1) != 0;

    const auto &suite = spec2006Suite();
    std::vector<std::uint32_t> ids;
    {
        std::string cur;
        for (char c : args.get("workload", "") + "+") {
            if (c == '+') {
                if (cur.empty())
                    continue;
                bool found = false;
                for (std::uint32_t i = 0; i < suite.size(); ++i) {
                    if (suite[i].name == cur) {
                        ids.push_back(i);
                        found = true;
                        break;
                    }
                }
                if (!found)
                    WSEL_FATAL("unknown benchmark '" << cur << "'");
                cur.clear();
            } else {
                cur += c;
            }
        }
    }
    const Workload w(ids);
    const std::uint32_t cores =
        static_cast<std::uint32_t>(w.size());
    const UncoreConfig ucfg = UncoreConfig::forCores(
        cores == 1 ? 2 : cores, policy);

    BadcoModelStore store(CoreConfig{}, insns, ucfg.llcHitLatency,
                          defaultCacheDir());
    BadcoMulticoreSim bad(ucfg, cores, insns);
    const SimResult rb = bad.run(w, store.getSuite(suite));
    std::printf("%-12s %10s %10s\n", "benchmark", "badco",
                run_detailed ? "detailed" : "");
    std::vector<double> det_ipc(cores, 0.0);
    if (run_detailed) {
        DetailedMulticoreSim det(CoreConfig{}, ucfg, cores, insns);
        const SimResult rd = det.run(w, suite);
        det_ipc = rd.ipc;
    }
    for (std::uint32_t k = 0; k < cores; ++k) {
        std::printf("%-12s %10.3f", suite[w[k]].name.c_str(),
                    rb.ipc[k]);
        if (run_detailed)
            std::printf(" %10.3f", det_ipc[k]);
        std::printf("\n");
    }
    std::printf("policy %s, %llu uops/thread, badco %.1f MIPS\n",
                toString(policy).c_str(),
                static_cast<unsigned long long>(insns), rb.mips());
    return 0;
}

int
cmdReport(const Args &args)
{
    if (!args.has("campaign") || !args.has("out"))
        WSEL_FATAL("report requires --campaign DIR --out FILE.md");
    const Campaign c = Campaign::load(args.get("campaign", ""));
    ReportInput in;
    in.title = "wsel campaign report (" + c.simulator + ", " +
               std::to_string(c.cores) + " cores, " +
               std::to_string(c.workloads.size()) + " workloads)";
    for (PolicyKind p : c.policies)
        in.configs.push_back(toString(p));
    for (ThroughputMetric m : paperMetrics()) {
        ReportInput::MetricBlock mb;
        mb.metric = m;
        for (std::size_t p = 0; p < c.policies.size(); ++p)
            mb.t.push_back(c.perWorkloadThroughputs(p, m));
        in.metrics.push_back(std::move(mb));
    }
    writeMarkdownReport(in, args.get("out", ""));
    std::printf("wrote %s\n", args.get("out", "").c_str());
    return 0;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: wsel_cli <command> [--options]\n"
        "\n"
        "commands:\n"
        "  characterize [--cores K] [--insns N] [--jobs N]\n"
        "      per-benchmark features and Table-IV classes\n"
        "  campaign --out DIR [--cores K] [--insns N]\n"
        "      [--policies LRU,DIP,...] [--limit N] [--resume 0|1]\n"
        "      [--jobs N]\n"
        "      BADCO campaign saved as a campaign_v3 dir,\n"
        "      checkpointed to DIR.partial\n"
        "  population --out DIR [--cores K] [--insns N]\n"
        "      [--policies LRU,...] [--shard-size CELLS]\n"
        "      [--jobs N] [--first R] [--last R|--limit N]\n"
        "      [--resume 0|1] [--metric IPCT|WSU|HSU|GSU]\n"
        "      [--seed S] [--distributed N] [--sequential 1]\n"
        "      [--hybrid 1] [--batch-cells B] [--verbose 1]\n"
        "      full-population campaign into a sharded campaign_v3\n"
        "      dir; --distributed N leases shards to N spawned\n"
        "      wsel_worker processes with --out as the result-store\n"
        "      root (docs/ROBUSTNESS.md); --sequential 1 runs the\n"
        "      adaptive stopping rule instead (--policies Y,X;\n"
        "      docs/SAMPLING.md); --hybrid 1 runs the\n"
        "      mixed-fidelity campaign (docs/FIDELITY.md)\n"
        "  adaptive --out DIR [--x POL --y POL] [--metric M]\n"
        "      [--cores K] [--insns N] [--target C] [--budget W]\n"
        "      [--min W] [--batch W] [--jobs N]\n"
        "      [--method random|ranked-set] [--set-size M]\n"
        "      [--redraws N] [--wall-clock SECS] [--resume 0|1]\n"
        "      [--seed S] [--batch-cells B] [--verbose 1]\n"
        "      sequential campaign that stops at target confidence\n"
        "      (docs/SAMPLING.md); resumable bitwise-identically\n"
        "  hybrid --out DIR [--x POL --y POL|--policies Y,X]\n"
        "      [--metric M] [--cores K] [--insns N]\n"
        "      [--first R] [--last R|--limit N] [--shard-size CELLS]\n"
        "      [--quantile Q] [--budget-frac F] [--threshold T]\n"
        "      [--batch-rows W] [--profile FILE] [--calibrate W]\n"
        "      [--jobs N] [--resume 0|1] [--seed S]\n"
        "      [--batch-cells B] [--verbose 1]\n"
        "      error-bounded mixed-fidelity campaign: BADCO sweep,\n"
        "      then suspect cells escalate to the detailed\n"
        "      simulator, at most --budget-frac of the population;\n"
        "      the report separates sampling error from model\n"
        "      error (docs/FIDELITY.md)\n"
        "  serve <submit|status|metrics|stop> --socket PATH\n"
        "      [--id N] [--wait 0|1] [campaign options]\n"
        "      [--escalate-budget F] [--escalate-quantile Q]\n"
        "      [--escalate-metric M]\n"
        "      talk to a wsel_serve daemon; stop halts a campaign,\n"
        "      keeping finished shards in the store;\n"
        "      --escalate-budget F > 0 re-leases suspect shards at\n"
        "      detailed fidelity after the BADCO sweep commits\n"
        "  analyze --campaign DIR --x POL --y POL [--metric M]\n"
        "      cv, 1/cv, eq. 8 sample size, regime, CI estimates\n"
        "  select --campaign DIR --x POL --y POL --size W\n"
        "      [--method random|balanced|bench|workload]\n"
        "      emit a workload sample for a detailed simulator\n"
        "  confidence --campaign DIR --x POL --y POL --size W\n"
        "      [--draws D]\n"
        "      model vs empirical confidence at one sample size\n"
        "  simulate --workload b1+b2+... [--policy LRU] [--insns N]\n"
        "  report --campaign DIR --out FILE.md\n"
        "  cache verify [--dir DIR] [--quarantine 0|1]\n"
        "\n"
        "common options: --jobs N (0 = $WSEL_JOBS, else hardware),\n"
        "  --metrics-out FILE, --trace-out FILE, --trace-mem MIB,\n"
        "  --batch-cells B (cells per batched-engine group; 0 =\n"
        "  $WSEL_BATCH_CELLS else 32, 1 = serial, max 4096; bitwise\n"
        "  identical at every value)\n"
        "environment: WSEL_JOBS, WSEL_METRICS, WSEL_TRACE,\n"
        "  WSEL_TRACE_MEM, WSEL_CACHE_DIR, WSEL_BATCH_CELLS,\n"
        "  WSEL_SIMD (scalar|sse2);\n"
        "  bench binaries write a machine-readable summary to\n"
        "  $WSEL_BENCH_JSON\n"
        "see the file header of tools/wsel_cli.cc for details\n");
    return 2;
}

int
dispatch(int argc, char **argv)
{
    const std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        usage();
        return 0;
    }
    if (cmd == "cache")
        return cmdCache(argc, argv);
    if (cmd == "serve")
        return cmdServe(argc, argv);
    const Args args(argc, argv);
    if (cmd == "characterize")
        return cmdCharacterize(args);
    if (cmd == "campaign")
        return cmdCampaign(args);
    if (cmd == "population")
        return cmdPopulation(args);
    if (cmd == "adaptive")
        return cmdAdaptive(args);
    if (cmd == "hybrid")
        return cmdHybrid(args);
    if (cmd == "analyze")
        return cmdAnalyze(args);
    if (cmd == "select")
        return cmdSelect(args);
    if (cmd == "confidence")
        return cmdConfidence(args);
    if (cmd == "simulate")
        return cmdSimulate(args);
    if (cmd == "report")
        return cmdReport(args);
    return usage();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    wsel::obs::initFromEnv();
    // WSEL_KILL_POINT works on the CLI exactly as on wsel_worker
    // (src/serve/worker.hh): CI's crash/resume smokes SIGKILL a
    // real process at a named persist kill point.
    wsel::serve::armKillPointsFromEnv();
    int rc;
    try {
        rc = dispatch(argc, argv);
    } catch (const wsel::FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        rc = 1;
    }
    // Write --metrics-out/--trace-out (and the $WSEL_* outputs)
    // even when the command failed: the partial trace is exactly
    // what one wants when diagnosing the failure.
    wsel::obs::flushOutputs();
    return rc;
}
