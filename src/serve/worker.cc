#include "serve/worker.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include <signal.h>
#include <unistd.h>

#include "serve/context.hh"
#include "serve/protocol.hh"
#include "serve/store.hh"
#include "sim/population.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel::serve
{

namespace
{

/** Shard currently being simulated (-1 = none); kill-point gate. */
std::atomic<std::int64_t> g_current_shard{-1};

struct CachedContext
{
    std::uint64_t fingerprint = 0;
    std::uint64_t geomHash = 0;
    std::unique_ptr<CampaignContext> ctx;
};

/**
 * One lease's work.  Returns the dedup flag for the Done message,
 * or nullopt when the lease must be Failed instead (message in
 * @p error).
 */
std::optional<bool>
runLease(const LeaseMsg &lease, CachedContext &cached,
         const WorkerOptions &opts, int fd, std::string &error)
{
    // Rebuilding models is the expensive part; campaigns send many
    // leases, so keep the last context and reuse it when the next
    // lease is for the same campaign (the common case: one worker
    // fleet serves one campaign at a time).
    const std::uint64_t geom = campaignGeometryHash(
        lease.spec.seed, lease.spec.firstRank, lease.spec.lastRank,
        lease.spec.shardRows, lease.spec.fidelity);
    if (!cached.ctx || cached.fingerprint != lease.fingerprint ||
        cached.geomHash != geom) {
        std::unique_ptr<CampaignContext> ctx;
        try {
            ctx = std::make_unique<CampaignContext>(
                lease.spec, opts.cacheDir, opts.jobs);
        } catch (const FatalError &e) {
            error = std::string("bad campaign spec: ") + e.what();
            return std::nullopt;
        }
        if (ctx->manifest().fingerprint != lease.fingerprint) {
            // Config drift between daemon and worker builds: our
            // cells would be wrong bytes under the lease's name.
            error = "campaign fingerprint mismatch (worker " +
                    persist::toHex(ctx->manifest().fingerprint) +
                    " vs lease " +
                    persist::toHex(lease.fingerprint) +
                    "); refusing to simulate";
            return std::nullopt;
        }
        cached = CachedContext{lease.fingerprint, geom,
                               std::move(ctx)};
    }
    const CampaignContext &ctx = *cached.ctx;
    const persist::V3Manifest &m = ctx.manifest();
    if (lease.shard >= m.shardCount()) {
        error = "lease for shard " + std::to_string(lease.shard) +
                " of a " + std::to_string(m.shardCount()) +
                "-shard campaign";
        return std::nullopt;
    }

    g_current_shard.store(static_cast<std::int64_t>(lease.shard),
                          std::memory_order_relaxed);
    persist::faultPoint("serve.shard-start");

    // The coordinator created this directory at admission, but a
    // worker racing a brand-new daemon must tolerate its absence.
    persist::ensureDirTree(lease.dir);
    if (ResultStore::hasShard(lease.dir, m, lease.shard)) {
        g_current_shard.store(-1, std::memory_order_relaxed);
        return true; // dedup: someone already produced it
    }

    // Heartbeat from the row callback, at most every ttl/4.
    const auto hb_interval = std::chrono::milliseconds(
        std::max<std::uint64_t>(1, lease.ttlMs / 4));
    auto last_hb = std::chrono::steady_clock::now();
    const auto tick = [&] {
        const auto now = std::chrono::steady_clock::now();
        if (now - last_hb < hb_interval)
            return;
        last_hb = now;
        WireWriter w;
        w.u64(lease.leaseId);
        (void)sendFrame(fd, MsgType::Heartbeat, w.bytes());
    };

    std::vector<double> payload;
    try {
        if (ctx.fidelity() == 0)
            // Batch and wave sizes from WSEL_BATCH_CELLS /
            // WSEL_BATCH_WAVE (resolver defaults otherwise);
            // neither ever changes shard bytes, so mixed worker
            // fleets stay coherent. One thread: the fleet's
            // processes already spread the campaign's shards.
            simulatePopulationShardBatched(
                m, ctx.population(), ctx.uncores(), ctx.models(),
                ctx.seed(), lease.shard, 0, 0, 1, payload, tick);
        else
            simulateDetailedPopulationShard(
                m, ctx.population(), ctx.coreConfig(),
                ctx.uncores(), ctx.suite(), ctx.seed(),
                lease.shard, payload, tick);
    } catch (const std::exception &e) {
        g_current_shard.store(-1, std::memory_order_relaxed);
        error = std::string("shard simulation failed: ") + e.what();
        return std::nullopt;
    }

    const bool wrote =
        ResultStore::commitShard(lease.dir, m, lease.shard,
                                 {payload.data(), payload.size()});
    persist::faultPoint("serve.shard-committed");
    g_current_shard.store(-1, std::memory_order_relaxed);
    return !wrote; // a lost commit race is a dedup, same as above
}

} // namespace

int
runWorker(const WorkerOptions &opts)
{
    Fd fd = connectUnix(opts.socketPath);
    if (!fd.valid()) {
        warn("worker: no coordinator at " + opts.socketPath);
        return 1;
    }
    FrameBuffer fb;
    {
        WireWriter w;
        w.u64(static_cast<std::uint64_t>(::getpid()));
        if (!sendFrame(fd.get(), MsgType::HelloWorker, w.bytes()))
            return 1;
    }

    CachedContext cached;
    for (;;) {
        if (!sendFrame(fd.get(), MsgType::RequestLease, {}))
            return 1;
        std::optional<Frame> f = recvFrame(fd.get(), fb, 60000);
        if (!f)
            return 1; // coordinator died or wedged
        switch (f->type) {
        case MsgType::Shutdown:
            return 0;
        case MsgType::NoWork: {
            // Backoff before asking again; leases may free up when
            // another worker dies or a backoff gate opens.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            continue;
        }
        case MsgType::Lease: {
            LeaseMsg lease;
            try {
                lease = decodeLease(f->body);
            } catch (const ProtocolError &e) {
                warn(std::string("worker: bad lease frame: ") +
                     e.what());
                return 1;
            }
            std::string error;
            const std::optional<bool> dedup =
                runLease(lease, cached, opts, fd.get(), error);
            WireWriter w;
            if (dedup) {
                w.u64(lease.leaseId);
                w.u64(lease.campaignId);
                w.u64(lease.shard);
                w.u8(*dedup ? 1 : 0);
                if (!sendFrame(fd.get(), MsgType::Done, w.bytes()))
                    return 1;
            } else {
                w.u64(lease.leaseId);
                w.str(error);
                warn("worker: lease " +
                     std::to_string(lease.leaseId) + " failed: " +
                     error);
                if (!sendFrame(fd.get(), MsgType::Failed,
                               w.bytes()))
                    return 1;
            }
            continue;
        }
        default:
            warn("worker: unexpected frame type " +
                 std::to_string(static_cast<int>(f->type)));
            return 1;
        }
    }
}

void
armKillPointsFromEnv()
{
    const char *spec = std::getenv("WSEL_KILL_POINT");
    if (!spec || !*spec)
        return;
    const std::string s(spec);
    const std::size_t colon = s.rfind(':');
    std::string point = s;
    std::uint64_t nth = 1;
    if (colon != std::string::npos) {
        point = s.substr(0, colon);
        nth = std::strtoull(s.c_str() + colon + 1, nullptr, 10);
        if (nth == 0)
            nth = 1;
    }
    std::int64_t only_shard = -1;
    if (const char *ks = std::getenv("WSEL_KILL_SHARD"); ks && *ks)
        only_shard = std::strtoll(ks, nullptr, 10);

    // The persist hook reports global per-point hit counts, but
    // with a shard filter we want "the nth hit *while holding that
    // shard*" — count locally.  shared_ptr keeps the counter alive
    // inside the std::function.
    auto counter = std::make_shared<std::atomic<std::uint64_t>>(0);
    persist::setFaultHook(
        [point, nth, only_shard, counter](const char *p,
                                          std::uint64_t) {
            if (point != p)
                return;
            if (only_shard >= 0 &&
                g_current_shard.load(std::memory_order_relaxed) !=
                    only_shard)
                return;
            if (counter->fetch_add(1) + 1 == nth) {
                // SIGKILL, not exit(): the test contract is a
                // worker that vanishes without destructors,
                // flushes, or goodbye messages.
                ::raise(SIGKILL);
            }
        });
}

} // namespace wsel::serve
