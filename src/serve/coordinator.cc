#include "serve/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "fidelity/escalation.hh"
#include "obs/metrics.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel::serve
{

namespace
{

std::uint64_t
ttlMillis(const LeaseOptions &l)
{
    return static_cast<std::uint64_t>(l.ttl.count());
}

/**
 * How long the listener is left out of poll() after accept() ran
 * out of file descriptors, unless a connection closes first.
 */
constexpr std::chrono::milliseconds kAcceptPause{100};

} // namespace

Coordinator::Coordinator(const CoordinatorOptions &opts)
    : opts_(opts), store_(opts.storeRoot),
      listenFd_(listenUnix(opts.socketPath))
{
    if (::pipe(wakePipe_) != 0)
        WSEL_FATAL("pipe: " << std::strerror(errno));
    for (int fd : wakePipe_) {
        ::fcntl(fd, F_SETFL, O_NONBLOCK);
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
}

Coordinator::~Coordinator()
{
    for (int fd : wakePipe_)
        if (fd >= 0)
            ::close(fd);
    closeEndpoints();
}

void
Coordinator::closeEndpoints()
{
    if (listenFd_.valid()) {
        listenFd_.reset();
        (void)::unlink(opts_.socketPath.c_str());
    }
    for (auto &c : conns_)
        dropConnection(*c);
    conns_.clear();
}

void
Coordinator::shutDown()
{
    for (auto &c : conns_)
        if (c->kind == Conn::Kind::Worker)
            (void)sendFrame(c->fd.get(), MsgType::Shutdown, {});
    // Nobody is served after this: a worker that connects late
    // must find no socket (and give up within its connect
    // timeout) rather than wait out its receive timeout on a
    // listener no loop reads; one accepted but not yet registered
    // sees EOF.  Registered workers read the Shutdown queued
    // before the close.
    closeEndpoints();
}

const std::string &
Coordinator::socketPath() const
{
    return opts_.socketPath;
}

void
Coordinator::requestStop()
{
    // Async-signal-safe: one write, no locks, no allocation.
    const char b = 's';
    (void)!::write(wakePipe_[1], &b, 1);
}

Coordinator::Campaign *
Coordinator::active()
{
    if (activeId_ == 0)
        return nullptr;
    auto it = campaigns_.find(activeId_);
    return it == campaigns_.end() ? nullptr : &it->second;
}

void
Coordinator::activateNext()
{
    while (activeId_ == 0 && !queue_.empty() && !draining_) {
        const std::uint64_t id = queue_.front();
        queue_.pop_front();
        Campaign &c = campaigns_.at(id);
        try {
            c.ctx = std::make_unique<CampaignContext>(
                c.spec, opts_.cacheDir, opts_.jobs);
        } catch (const FatalError &e) {
            c.state = CampaignState::Failed;
            c.message = e.what();
            warn("campaign " + std::to_string(id) +
                 " failed at admission: " + c.message);
            continue; // try the next queued campaign
        }
        const persist::V3Manifest &m = c.ctx->manifest();
        c.dir = store_.campaignDir(m.fingerprint,
                                   c.ctx->geometryHash());
        store_.ensureCampaignDir(c.dir);
        c.table = std::make_unique<LeaseTable>(m.shardCount(),
                                               opts_.lease);
        // Shards already in the store — from an earlier overlapping
        // campaign or from a previous coordinator's interrupted run
        // — are done before the first lease is granted.
        for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
            if (ResultStore::hasShard(c.dir, m, s)) {
                c.table->markDone(s);
                ++c.deduped;
            }
        }
        if (c.deduped > 0)
            obs::counter("serve.dedup_hits").inc(c.deduped);
        c.state = CampaignState::Running;
        activeId_ = id;
        if (c.table->finished())
            finalize(id, c); // fully dedup'd: zero recomputation
    }
}

bool
Coordinator::beginEscalation(std::uint64_t id, Campaign &c)
{
    // Whatever keeps escalation from being planned leaves the
    // committed BADCO campaign Done, with the reason in its status.
    const auto skip = [&](const std::string &why) {
        c.message = "escalation skipped (" + why +
                    "); finished at BADCO fidelity";
        warn("campaign " + std::to_string(id) + ": " + c.message);
        return false;
    };
    if (opts_.cacheDir.empty())
        return skip("the daemon has no cache dir to hold an error "
                    "profile");

    // Phase-1 campaign: same geometry, detailed fidelity.  Its dir
    // holds the escalation set, pinned across coordinator restarts.
    CampaignSpec dspec = c.spec;
    dspec.fidelity = 1;
    dspec.escalateBudget = 0.0;
    std::unique_ptr<CampaignContext> dctx;
    std::string ddir;
    fidelity::EscalationRecord rec;
    try {
        const fidelity::ErrorProfile profile =
            fidelity::readErrorProfile(
                fidelity::errorProfilePath(opts_.cacheDir));
        dctx = std::make_unique<CampaignContext>(
            dspec, opts_.cacheDir, opts_.jobs);
        ddir = store_.campaignDir(dctx->manifest().fingerprint,
                                  dctx->geometryHash());
        store_.ensureCampaignDir(ddir);
        fidelity::EscalationKnobs knobs;
        knobs.metric = parseMetric(c.spec.escalateMetric);
        knobs.quantile = c.spec.escalateQuantile;
        knobs.budgetFraction = c.spec.escalateBudget;
        knobs.seed = c.spec.seed;
        knobs.detailedFingerprint = dctx->manifest().fingerprint;
        rec = fidelity::planEscalation(
                  c.ctx->manifest(), c.dir, c.ctx->population(),
                  c.ctx->suite(), profile, knobs, ddir, true,
                  opts_.jobs)
                  .record;
    } catch (const FatalError &e) {
        return skip(e.what());
    } catch (const persist::CacheInvalid &e) {
        return skip(e.what());
    }
    const persist::V3Manifest &dm = dctx->manifest();

    auto table =
        std::make_unique<LeaseTable>(dm.shardCount(), opts_.lease);
    std::uint64_t flagged_shards = 0;
    for (std::uint64_t s = 0; s < dm.shardCount(); ++s) {
        const std::uint64_t first = dm.shardFirstRank(s);
        const std::uint64_t n = dm.rowsInShard(s);
        bool flagged = false;
        for (std::uint64_t r = 0; r < n && !flagged; ++r)
            flagged = rec.escalated(first - dm.firstRank + r);
        if (!flagged) {
            table->markDone(s);
        } else if (ResultStore::hasShard(ddir, dm, s)) {
            table->markDone(s);
            ++c.deduped;
            obs::counter("serve.dedup_hits").inc();
        } else {
            ++flagged_shards;
        }
    }

    c.message = "escalated " + std::to_string(rec.escalatedCount) +
                " row(s) at detailed fidelity; badco " + c.dir +
                "; detailed " + ddir;
    c.phase = 1;
    c.spec = std::move(dspec);
    c.ctx = std::move(dctx);
    c.table = std::move(table);
    c.dir = ddir;
    obs::counter("serve.escalations_started").inc();
    if (obs::metricsEnabled())
        obs::gauge("serve.escalated_rows")
            .set(static_cast<double>(rec.escalatedCount));
    logLine("campaign " + std::to_string(id) + ": escalating " +
            std::to_string(rec.escalatedCount) + " row(s) in " +
            std::to_string(flagged_shards) +
            " shard(s) to detailed fidelity -> " + ddir);
    if (c.table->finished()) {
        finalize(id, c);
        return c.state == CampaignState::Running;
    }
    return true;
}

void
Coordinator::finalize(std::uint64_t id, Campaign &c)
{
    if (c.table->succeeded()) {
        // The detailed dir of phase 1 holds only escalated shards
        // (the fidelity-bitmap sidecar names them), so no manifest:
        // a manifest claims a complete campaign.
        if (c.phase == 0) {
            c.ctx->computeReferenceIpcs(opts_.jobs);
            ResultStore::commitManifest(c.dir, c.ctx->manifest());
            if (c.spec.fidelity == 0 &&
                c.spec.escalateBudget > 0.0 &&
                beginEscalation(id, c))
                return; // now Running in the detailed phase
        }
        c.state = CampaignState::Done;
    } else if (c.table->halted()) {
        // A client Stop: no manifest (the campaign is partial),
        // but every completed shard stays in the store for dedup.
        c.state = CampaignState::Stopped;
        c.message = "stopped by client after " +
                    std::to_string(c.table->doneCount()) + "/" +
                    std::to_string(c.table->shards()) + " shard(s)";
    } else {
        c.state = CampaignState::Failed;
        c.message = std::to_string(c.table->quarantinedCount()) +
                    " shard(s) quarantined as poison";
        warn("campaign " + std::to_string(id) + " failed: " +
             c.message);
    }
    c.ctx.reset(); // models are the heavy part; the table stays
                   // for status queries
    if (activeId_ == id)
        activeId_ = 0;
}

StatusMsg
Coordinator::statusOf(std::uint64_t id) const
{
    StatusMsg s;
    auto it = campaigns_.find(id);
    if (it == campaigns_.end())
        return s; // Unknown
    const Campaign &c = it->second;
    s.state = c.state;
    s.dir = c.dir;
    s.message = c.message;
    s.shardsDeduped = c.deduped;
    if (c.table) {
        s.shardsTotal = c.table->shards();
        s.shardsDone = c.table->doneCount();
        s.shardsQuarantined = c.table->quarantinedCount();
        s.leasesActive = c.table->activeLeases();
    }
    return s;
}

/**
 * Answer @p conn's lease request with Shutdown while draining or
 * with a Lease; false (nothing sent) when no shard is grantable.
 */
bool
Coordinator::answerLease(Conn &conn)
{
    if (draining_) {
        (void)sendFrame(conn.fd.get(), MsgType::Shutdown, {});
        return true;
    }
    Campaign *c = active();
    if (!c || !c->table)
        return false;
    const auto now = LeaseClock::now();
    const std::optional<LeaseGrant> g = c->table->acquire(
        now, static_cast<std::int64_t>(conn.workerPid));
    if (!g)
        return false;
    LeaseMsg lm;
    lm.leaseId = g->leaseId;
    lm.campaignId = activeId_;
    lm.shard = g->shard;
    lm.ttlMs = ttlMillis(opts_.lease);
    lm.fingerprint = c->ctx->manifest().fingerprint;
    lm.dir = c->dir;
    lm.spec = c->spec;
    conn.leases.push_back(g->leaseId);
    inflight_[g->leaseId] = LeaseInflight{activeId_, now};
    obs::counter("serve.leases_granted").inc();
    if (!sendFrame(conn.fd.get(), MsgType::Lease, encodeLease(lm)))
        dropConnection(conn);
    return true;
}

/**
 * Answer every parked request that can be answered now: a lease
 * request once a shard is grantable or the daemon drains, a wait
 * once its campaign is final; either with the current state after
 * kParkBound.  Runs at the end of every loop iteration, after
 * every state change the iteration made.
 */
void
Coordinator::serveParked(LeaseClock::time_point now)
{
    for (auto &cp : conns_) {
        Conn &conn = *cp;
        if (conn.leaseParkedAt && conn.fd.valid()) {
            if (answerLease(conn)) {
                conn.leaseParkedAt.reset();
            } else if (now - *conn.leaseParkedAt >= kParkBound) {
                conn.leaseParkedAt.reset();
                (void)sendFrame(conn.fd.get(), MsgType::NoWork,
                                encodeNoWork(false));
            }
        }
        if (conn.waitParkedAt && conn.fd.valid()) {
            const StatusMsg st = statusOf(conn.waitCampaign);
            if (!inProgress(st.state) ||
                now - *conn.waitParkedAt >= kParkBound) {
                conn.waitParkedAt.reset();
                if (!sendFrame(conn.fd.get(), MsgType::StatusReply,
                               encodeStatus(st)))
                    dropConnection(conn);
            }
        }
    }
}

void
Coordinator::noteLeaseClosed(std::uint64_t leaseId, Conn *conn)
{
    auto it = inflight_.find(leaseId);
    if (it != inflight_.end()) {
        const auto dur = LeaseClock::now() - it->second.granted;
        obs::histogram("serve.lease_ns")
            .recordNs(static_cast<std::uint64_t>(
                std::chrono::duration_cast<
                    std::chrono::nanoseconds>(dur)
                    .count()));
        inflight_.erase(it);
    }
    if (conn) {
        auto &v = conn->leases;
        v.erase(std::remove(v.begin(), v.end(), leaseId), v.end());
    }
}

bool
Coordinator::handleFrame(Conn &conn, const Frame &f)
{
    switch (f.type) {
    case MsgType::HelloWorker: {
        conn.kind = Conn::Kind::Worker;
        conn.workerPid = decodeId(f.body);
        obs::gauge("serve.workers_active").add(1.0);
        return true;
    }
    case MsgType::HelloClient:
        conn.kind = Conn::Kind::Client;
        sawClient_ = true;
        return true;
    case MsgType::RequestLease:
        if (!answerLease(conn))
            conn.leaseParkedAt = LeaseClock::now();
        return true;
    case MsgType::Heartbeat: {
        const std::uint64_t leaseId = decodeId(f.body);
        auto it = inflight_.find(leaseId);
        if (it == inflight_.end())
            return true; // expired & reclaimed; worker will learn
        auto cit = campaigns_.find(it->second.campaignId);
        if (cit != campaigns_.end() && cit->second.table)
            (void)cit->second.table->heartbeat(leaseId,
                                              LeaseClock::now());
        return true;
    }
    case MsgType::Done: {
        // Its campaignId is not read: inflight_ is authoritative.
        const DoneMsg done = decodeDone(f.body);
        auto it = inflight_.find(done.leaseId);
        if (it == inflight_.end()) {
            // A zombie (lease expired, maybe re-run elsewhere).
            // The store already holds the shard bytes either way;
            // nothing to update.
            obs::counter("serve.duplicate_completions").inc();
            return true;
        }
        const std::uint64_t cid = it->second.campaignId;
        Campaign &c = campaigns_.at(cid);
        const CompleteResult res =
            c.table->complete(done.leaseId, done.shard);
        noteLeaseClosed(done.leaseId, &conn);
        if (res == CompleteResult::Committed && done.dedup) {
            ++c.deduped;
            obs::counter("serve.dedup_hits").inc();
        }
        if (res == CompleteResult::Duplicate)
            obs::counter("serve.duplicate_completions").inc();
        if (c.state == CampaignState::Running &&
            c.table->finished())
            finalize(cid, c);
        return true;
    }
    case MsgType::Failed: {
        const ReplyMsg failed = decodeFailed(f.body);
        const std::uint64_t leaseId = failed.id;
        auto it = inflight_.find(leaseId);
        if (it == inflight_.end())
            return true;
        const std::uint64_t cid = it->second.campaignId;
        Campaign &c = campaigns_.at(cid);
        const std::uint64_t qBefore =
            c.table->quarantinedCount();
        c.table->fail(leaseId, LeaseClock::now());
        noteLeaseClosed(leaseId, &conn);
        const std::uint64_t qAfter = c.table->quarantinedCount();
        if (qAfter > qBefore)
            obs::counter("serve.shards_quarantined")
                .inc(qAfter - qBefore);
        else
            obs::counter("serve.leases_requeued").inc();
        warn("lease " + std::to_string(leaseId) + " failed: " +
             failed.message);
        if (c.state == CampaignState::Running &&
            c.table->finished())
            finalize(cid, c);
        return true;
    }
    case MsgType::Submit: {
        CampaignSpec spec = decodeSpec(f.body);
        ReplyMsg reply;
        const std::size_t pending =
            queue_.size() + (activeId_ != 0 ? 1 : 0);
        if (draining_) {
            reply.message = "daemon is draining";
            obs::counter("serve.campaigns_rejected").inc();
        } else if (pending >= opts_.maxQueued) {
            reply.message = "admission queue full (" +
                            std::to_string(pending) + "/" +
                            std::to_string(opts_.maxQueued) + ")";
            obs::counter("serve.campaigns_rejected").inc();
        } else {
            const std::uint64_t id = nextCampaignId_++;
            Campaign c;
            c.spec = std::move(spec);
            campaigns_.emplace(id, std::move(c));
            queue_.push_back(id);
            obs::counter("serve.campaigns_submitted").inc();
            reply.ok = true;
            reply.id = id;
        }
        return sendFrame(conn.fd.get(), MsgType::SubmitReply,
                         encodeSubmitReply(reply));
    }
    case MsgType::StatusReq:
        return sendFrame(conn.fd.get(), MsgType::StatusReply,
                         encodeStatus(statusOf(decodeId(f.body))));
    case MsgType::WaitReq:
        // Answered by serveParked, in this iteration when the
        // campaign is already final.
        conn.waitCampaign = decodeId(f.body);
        conn.waitParkedAt = LeaseClock::now();
        return true;
    case MsgType::MetricsReq:
        return sendFrame(conn.fd.get(), MsgType::MetricsReply,
                         encodeText(obs::metricsSnapshot().toJson()));
    case MsgType::StopReq: {
        const std::uint64_t cid = decodeId(f.body);
        ReplyMsg reply;
        auto it = campaigns_.find(cid);
        if (it == campaigns_.end()) {
            reply.message = "unknown campaign " + std::to_string(cid);
        } else if (it->second.state == CampaignState::Queued) {
            Campaign &c = it->second;
            std::erase(queue_, cid);
            c.state = CampaignState::Stopped;
            c.message = "stopped before activation";
            obs::counter("serve.campaigns_stopped").inc();
            reply.ok = true;
            reply.message = c.message;
        } else if (it->second.state == CampaignState::Running) {
            Campaign &c = it->second;
            // Stop granting leases; in-flight shards finish and
            // their results stay in the store, so a later
            // re-submission dedups everything already paid for.
            c.table->halt();
            obs::counter("serve.campaigns_stopped").inc();
            reply.ok = true;
            reply.message = "halting; " +
                            std::to_string(c.table->activeLeases()) +
                            " lease(s) in flight will finish";
            if (c.table->finished())
                finalize(cid, c);
        } else {
            reply.message = "campaign already " +
                            std::string(toString(it->second.state));
        }
        return sendFrame(conn.fd.get(), MsgType::StopReply,
                         encodeStopReply(reply));
    }
    default:
        warn("coordinator: unexpected frame type " +
             std::to_string(static_cast<int>(f.type)));
        return false;
    }
}

void
Coordinator::dropConnection(Conn &conn)
{
    if (!conn.fd.valid())
        return;
    // A dead worker's leases fail back to the table (counted as
    // deaths; the backoff/quarantine path).
    const std::vector<std::uint64_t> leases = conn.leases;
    for (std::uint64_t leaseId : leases) {
        auto it = inflight_.find(leaseId);
        if (it == inflight_.end())
            continue;
        const std::uint64_t cid = it->second.campaignId;
        Campaign &c = campaigns_.at(cid);
        const std::uint64_t qBefore =
            c.table->quarantinedCount();
        c.table->fail(leaseId, LeaseClock::now());
        noteLeaseClosed(leaseId, nullptr);
        const std::uint64_t qAfter = c.table->quarantinedCount();
        if (qAfter > qBefore)
            obs::counter("serve.shards_quarantined")
                .inc(qAfter - qBefore);
        else
            obs::counter("serve.leases_requeued").inc();
        if (c.state == CampaignState::Running &&
            c.table->finished())
            finalize(cid, c);
    }
    conn.leases.clear();
    if (conn.kind == Conn::Kind::Worker)
        obs::gauge("serve.workers_active").add(-1.0);
    conn.kind = Conn::Kind::Unknown;
    conn.fd.reset();
    acceptPausedUntil_ = {}; // a descriptor is free again
}

void
Coordinator::acceptConnection()
{
    const int fd =
        ::accept4(listenFd_.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
        // The connection stays queued, so the listener would poll
        // readable again at once: a spin, until a descriptor frees.
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
            obs::counter("serve.accept_errors").inc();
            acceptPausedUntil_ = LeaseClock::now() + kAcceptPause;
        }
        return;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = Fd(fd);
    conns_.push_back(std::move(conn));
}

int
Coordinator::run()
{
    auto lastLoop = LeaseClock::now();
    for (;;) {
        std::vector<pollfd> pfds;
        // poll() skips a negative fd: the paused listener.
        pfds.push_back({LeaseClock::now() < acceptPausedUntil_
                            ? -1
                            : listenFd_.get(),
                        POLLIN, 0});
        pfds.push_back({wakePipe_[0], POLLIN, 0});
        for (const auto &c : conns_)
            pfds.push_back({c->fd.get(), POLLIN, 0});

        // Only a committed manifest stores reference IPCs (finalize
        // computes them if still missing).  Once leases are out
        // they are due, and wait for a poll that finds nothing to
        // read, so no request waits behind them.
        Campaign *a = active();
        const bool refs_due = a && a->phase == 0 &&
                              a->table->activeLeases() > 0 &&
                              a->ctx->manifest().refIpc.empty();

        // At most 100 ms, which also bounds how late a kParkBound
        // answer or the end of an accept pause is noticed.
        int timeout_ms = refs_due ? 0 : 100;
        if (a && !refs_due) {
            if (auto next = a->table->nextEvent()) {
                const auto d = std::chrono::duration_cast<
                    std::chrono::milliseconds>(*next -
                                               LeaseClock::now());
                timeout_ms = std::clamp<int>(
                    static_cast<int>(d.count()) + 1, 1, 100);
            }
        }
        const int pr =
            ::poll(pfds.data(),
                   static_cast<nfds_t>(pfds.size()), timeout_ms);
        if (pr < 0 && errno != EINTR)
            WSEL_FATAL("poll: " << std::strerror(errno));

        // Loop-stall compensation: if this iteration arrives much
        // later than the last (synchronous admission work, swap,
        // ptrace...), push every deadline out by the stall instead
        // of expiring workers that heartbeated into our buffer.
        const auto now = LeaseClock::now();
        const auto gap = now - lastLoop;
        lastLoop = now;
        if (gap > opts_.lease.ttl / 2) {
            if (Campaign *c = active(); c && c->table)
                c->table->extendAll(gap);
        }

        if (pfds[1].revents & POLLIN) {
            char buf[64];
            while (::read(wakePipe_[0], buf, sizeof(buf)) > 0) {
            }
            draining_ = true;
        }
        if (pfds[0].revents & POLLIN)
            acceptConnection();

        // conns_ indices line up with pfds[2..]; handle reads and
        // hangups.  dropConnection only closes the fd — erasure
        // happens below so indices stay stable.
        for (std::size_t i = 0; i < conns_.size() &&
                                i + 2 < pfds.size();
             ++i) {
            Conn &conn = *conns_[i];
            if (!(pfds[i + 2].revents & (POLLIN | POLLHUP)))
                continue;
            char chunk[4096];
            const ssize_t n =
                ::recv(conn.fd.get(), chunk, sizeof(chunk), 0);
            if (n <= 0) {
                dropConnection(conn);
                continue;
            }
            conn.fb.feed(chunk, static_cast<std::size_t>(n));
            try {
                while (std::optional<Frame> f = conn.fb.next()) {
                    if (!handleFrame(conn, *f)) {
                        dropConnection(conn);
                        break;
                    }
                }
            } catch (const ProtocolError &e) {
                warn(std::string(
                         "coordinator: dropping malformed "
                         "connection: ") +
                     e.what());
                dropConnection(conn);
            }
        }
        std::erase_if(conns_, [](const std::unique_ptr<Conn> &c) {
            return !c->fd.valid();
        });

        // Reclaim overdue leases.
        if (Campaign *c = active(); c && c->table) {
            const std::uint64_t qBefore =
                c->table->quarantinedCount();
            const std::vector<std::uint64_t> expired =
                c->table->expire(now);
            for (std::uint64_t leaseId : expired) {
                obs::counter("serve.leases_expired").inc();
                for (auto &cp : conns_)
                    if (std::count(cp->leases.begin(),
                                   cp->leases.end(), leaseId))
                        noteLeaseClosed(leaseId, cp.get());
                noteLeaseClosed(leaseId, nullptr);
            }
            const std::uint64_t qAfter =
                c->table->quarantinedCount();
            if (qAfter > qBefore)
                obs::counter("serve.shards_quarantined")
                    .inc(qAfter - qBefore);
            if (!expired.empty())
                obs::counter("serve.leases_requeued")
                    .inc(expired.size() - (qAfter - qBefore));
            if (c->state == CampaignState::Running &&
                c->table->finished())
                finalize(activeId_, *c);
        }

        activateNext();
        serveParked(LeaseClock::now());
        if (refs_due && pr == 0 && active() == a)
            a->ctx->computeReferenceIpcs(opts_.jobs);

        if (draining_ && inflight_.empty()) {
            shutDown();
            return 0;
        }
        if (opts_.exitWhenIdle && sawClient_ && activeId_ == 0 &&
            queue_.empty()) {
            const bool clients_left = std::any_of(
                conns_.begin(), conns_.end(),
                [](const std::unique_ptr<Conn> &c) {
                    return c->kind == Conn::Kind::Client;
                });
            if (!clients_left) {
                shutDown();
                return 0;
            }
        }
    }
}

} // namespace wsel::serve
