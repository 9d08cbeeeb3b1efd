#include "serve/worker.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
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
 * The lease heartbeat, sent from its own thread while the shard
 * simulates: every @p interval, but only when @p cells_done has
 * grown since the previous beat. A shard making progress keeps its
 * lease through flushes of any length; a wedged or livelocked one
 * stops renewing it and loses it, like a dead worker. The
 * destructor stops and joins the thread, so once it returns the
 * caller is again the only writer on the socket.
 */
class HeartbeatThread
{
  public:
    HeartbeatThread(int fd, std::uint64_t lease_id,
                    std::chrono::milliseconds interval,
                    const std::atomic<std::uint64_t> &cells_done)
        : thread_([this, fd, lease_id, interval, &cells_done] {
              run(fd, lease_id, interval, cells_done);
          })
    {
    }

    ~HeartbeatThread()
    {
        {
            std::lock_guard<std::mutex> g(mu_);
            stop_ = true;
        }
        cv_.notify_one();
        thread_.join();
    }

    HeartbeatThread(const HeartbeatThread &) = delete;
    HeartbeatThread &operator=(const HeartbeatThread &) = delete;

  private:
    void
    run(int fd, std::uint64_t lease_id,
        std::chrono::milliseconds interval,
        const std::atomic<std::uint64_t> &cells_done)
    {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lk(mu_);
        while (!cv_.wait_for(lk, interval, [this] { return stop_; })) {
            const std::uint64_t done =
                cells_done.load(std::memory_order_relaxed);
            if (done == seen)
                continue; // no progress: let the lease run down
            seen = done;
            lk.unlock();
            // A lost coordinator surfaces on the main thread's
            // next send or receive; nothing to do about it here.
            (void)sendFrame(fd, MsgType::Heartbeat, encodeId(lease_id));
            lk.lock();
        }
    }

    std::mutex mu_; ///< guards stop_
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_; ///< last: starts after mu_/cv_/stop_ exist
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

    std::vector<double> payload;
    std::atomic<std::uint64_t> cells_done{0};
    try {
        const HeartbeatThread heartbeat(
            fd, lease.leaseId,
            std::chrono::milliseconds(
                std::max<std::uint64_t>(1, lease.ttlMs / 4)),
            cells_done);
        if (ctx.fidelity() == 0)
            // Batch size from WSEL_BATCH_CELLS (resolver default
            // otherwise) and job count from --jobs; neither ever
            // changes shard bytes, so mixed worker fleets stay
            // coherent.
            simulatePopulationShardBatched(
                m, WorkloadSet::fullPopulation(ctx.population()),
                ctx.uncores(), ctx.models(), ctx.seed(), lease.shard,
                0, opts.jobs, payload, &cells_done);
        else
            simulateDetailedPopulationShard(
                m, WorkloadSet::fullPopulation(ctx.population()),
                ctx.coreConfig(), ctx.uncores(), ctx.suite(),
                ctx.seed(), lease.shard, opts.jobs, payload,
                &cells_done);
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

/**
 * Exit code after a send to the coordinator failed. A coordinator
 * that drained sends Shutdown and then closes the connection, so a
 * worker whose send raced that close finds the Shutdown already in
 * its receive buffer: a clean exit, not a lost coordinator.
 */
int
exitAfterLostSend(int fd, FrameBuffer &fb)
{
    while (const std::optional<Frame> f = recvFrame(fd, fb, 100))
        if (f->type == MsgType::Shutdown)
            return 0;
    return 1;
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
    if (!sendFrame(fd.get(), MsgType::HelloWorker,
                   encodeId(static_cast<std::uint64_t>(::getpid()))))
        return 1;

    CachedContext cached;
    for (;;) {
        if (!sendFrame(fd.get(), MsgType::RequestLease, {}))
            return exitAfterLostSend(fd.get(), fb);
        // The coordinator parks the request until a shard is
        // grantable but answers within kParkBound, so silence for
        // this long means it died or wedged.
        std::optional<Frame> f = recvFrame(fd.get(), fb, 60000);
        if (!f)
            return 1;
        switch (f->type) {
        case MsgType::Shutdown:
            return 0;
        case MsgType::NoWork:
            // The coordinator's keepalive for a parked request (it
            // answers as soon as a shard is grantable): ask again.
            continue;
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
            if (dedup) {
                const DoneMsg done{lease.leaseId, lease.campaignId,
                                   lease.shard, *dedup};
                if (!sendFrame(fd.get(), MsgType::Done,
                               encodeDone(done)))
                    return exitAfterLostSend(fd.get(), fb);
            } else {
                warn("worker: lease " +
                     std::to_string(lease.leaseId) + " failed: " +
                     error);
                if (!sendFrame(fd.get(), MsgType::Failed,
                               encodeFailed({false, lease.leaseId,
                                             error})))
                    return exitAfterLostSend(fd.get(), fb);
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
