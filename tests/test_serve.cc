/**
 * @file
 * Tests for the distributed campaign service (src/serve/): lease
 * lifecycle edges on the clock-injected LeaseTable, wire-protocol
 * robustness against truncated/oversized frames, content-addressed
 * store idempotence and corruption quarantine, the two-process
 * directory-creation race, and end-to-end coordinator/worker runs
 * with real SIGKILLed worker processes — the recovered campaign
 * must be bitwise identical to an uninterrupted serial run.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "fidelity/error_profile.hh"
#include "fidelity/persist_fidelity.hh"
#include "mem/uncore_config.hh"
#include "obs/metrics.hh"
#include "serve/context.hh"
#include "serve/coordinator.hh"
#include "serve/lease.hh"
#include "serve/protocol.hh"
#include "serve/spawn.hh"
#include "serve/store.hh"
#include "sim/hybrid.hh"
#include "sim/model_store.hh"
#include "sim/population.hh"
#include "stats/persist.hh"
#include "stats/persist_v3.hh"

namespace wsel
{

namespace
{

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using serve::CompleteResult;
using serve::LeaseClock;
using serve::LeaseOptions;
using serve::LeaseTable;
using serve::ShardState;

// -------------------------------------------------------------------
// LeaseTable: lifecycle edge cases, unit-tested with an injected
// clock (no sleeps).
// -------------------------------------------------------------------

LeaseOptions
fastOpts()
{
    LeaseOptions o;
    o.ttl = 100ms;
    o.backoffBase = 10ms;
    o.backoffCap = 80ms;
    o.quarantineAfter = 2;
    return o;
}

TEST(LeaseTableTest, GrantsLowestPendingInOrder)
{
    LeaseTable t(3, fastOpts());
    const auto now = LeaseClock::now();
    const auto a = t.acquire(now);
    const auto b = t.acquire(now);
    const auto c = t.acquire(now);
    ASSERT_TRUE(a && b && c);
    EXPECT_EQ(a->shard, 0u);
    EXPECT_EQ(b->shard, 1u);
    EXPECT_EQ(c->shard, 2u);
    EXPECT_FALSE(t.acquire(now)); // everything leased
    EXPECT_EQ(t.activeLeases(), 3u);
}

TEST(LeaseTableTest, HeartbeatRenewsDeadline)
{
    LeaseTable t(1, fastOpts());
    const auto t0 = LeaseClock::now();
    const auto g = t.acquire(t0);
    ASSERT_TRUE(g);
    // Renew just before expiry; the old deadline must not fire.
    EXPECT_TRUE(t.heartbeat(g->leaseId, t0 + 90ms));
    EXPECT_TRUE(t.expire(t0 + 150ms).empty());
    // ... but the renewed one does.
    const auto reclaimed = t.expire(t0 + 191ms);
    ASSERT_EQ(reclaimed.size(), 1u);
    EXPECT_EQ(reclaimed[0], g->leaseId);
    EXPECT_FALSE(t.heartbeat(g->leaseId, t0 + 200ms));
}

TEST(LeaseTableTest, ExpiryDuringFinalWriteIsStaleThenDuplicate)
{
    // The "heartbeat expiry during the final shard write" edge: the
    // lease expires while the worker is inside commitShard.  Its
    // late completion report must come back Stale (the shard may
    // already be re-leased), and once the re-run finishes, a second
    // zombie report must be Duplicate — never a double count.
    LeaseTable t(1, fastOpts());
    const auto t0 = LeaseClock::now();
    const auto g = t.acquire(t0);
    ASSERT_TRUE(g);
    ASSERT_EQ(t.expire(t0 + 101ms).size(), 1u);
    EXPECT_EQ(t.complete(g->leaseId, g->shard),
              CompleteResult::Stale);
    EXPECT_EQ(t.doneCount(), 0u);

    // Re-lease after the backoff and complete for real.
    const auto g2 = t.acquire(t0 + 200ms);
    ASSERT_TRUE(g2);
    EXPECT_EQ(t.complete(g2->leaseId, g2->shard),
              CompleteResult::Committed);
    EXPECT_EQ(t.complete(g->leaseId, g->shard),
              CompleteResult::Duplicate);
    EXPECT_EQ(t.doneCount(), 1u);
    EXPECT_TRUE(t.succeeded());
}

TEST(LeaseTableTest, DuplicateCompletionIsIdempotent)
{
    LeaseTable t(1, fastOpts());
    const auto g = t.acquire(LeaseClock::now());
    ASSERT_TRUE(g);
    EXPECT_EQ(t.complete(g->leaseId, g->shard),
              CompleteResult::Committed);
    EXPECT_EQ(t.complete(g->leaseId, g->shard),
              CompleteResult::Duplicate);
    EXPECT_EQ(t.doneCount(), 1u);
}

TEST(LeaseTableTest, HaltStopsNewLeasesButDrainsInFlight)
{
    LeaseTable t(3, fastOpts());
    const auto t0 = LeaseClock::now();
    const auto g = t.acquire(t0);
    ASSERT_TRUE(g);
    t.halt();
    EXPECT_TRUE(t.halted());
    // No new work after a halt, even with shards still pending.
    EXPECT_FALSE(t.acquire(t0));
    // The in-flight lease keeps its deadline and still commits.
    EXPECT_FALSE(t.finished());
    EXPECT_TRUE(t.heartbeat(g->leaseId, t0 + 50ms));
    EXPECT_EQ(t.complete(g->leaseId, g->shard),
              CompleteResult::Committed);
    EXPECT_EQ(t.doneCount(), 1u);
    // Finished once the last lease drains, without the other two
    // shards ever running; the partial result is not a success.
    EXPECT_TRUE(t.finished());
    EXPECT_FALSE(t.succeeded());
}

TEST(LeaseTableTest, HaltWithNoLeasesFinishesImmediately)
{
    LeaseTable t(2, fastOpts());
    EXPECT_FALSE(t.finished());
    t.halt();
    EXPECT_TRUE(t.finished());
    EXPECT_FALSE(t.succeeded());
    EXPECT_EQ(t.doneCount(), 0u);
}

TEST(LeaseTableTest, WrongShardReportRequeuesHeldShard)
{
    LeaseTable t(2, fastOpts());
    const auto t0 = LeaseClock::now();
    const auto g = t.acquire(t0);
    ASSERT_TRUE(g);
    EXPECT_EQ(t.complete(g->leaseId, 1), CompleteResult::Stale);
    EXPECT_EQ(t.shardState(0), ShardState::Pending);
    EXPECT_EQ(t.doneCount(), 0u);
}

TEST(LeaseTableTest, BackoffIsExponentialAndCapped)
{
    LeaseOptions o = fastOpts();
    o.quarantineAfter = 10; // keep requeuing
    LeaseTable t(1, o);
    const auto t0 = LeaseClock::now();

    // Death 1: backoff = base = 10ms.
    auto g = t.acquire(t0);
    ASSERT_TRUE(g);
    t.fail(g->leaseId, t0);
    EXPECT_FALSE(t.acquire(t0 + 9ms));
    g = t.acquire(t0 + 10ms);
    ASSERT_TRUE(g);

    // Death 2: backoff doubles to 20ms.
    t.fail(g->leaseId, t0 + 10ms);
    EXPECT_FALSE(t.acquire(t0 + 29ms));
    g = t.acquire(t0 + 30ms);
    ASSERT_TRUE(g);

    // Deaths 3..5: 40ms, then capped at 80ms.
    t.fail(g->leaseId, t0);
    g = t.acquire(t0 + 40ms);
    ASSERT_TRUE(g);
    t.fail(g->leaseId, t0);
    EXPECT_FALSE(t.acquire(t0 + 79ms)); // 2^3*10 = 80ms (cap)
    g = t.acquire(t0 + 80ms);
    ASSERT_TRUE(g);
    t.fail(g->leaseId, t0);
    EXPECT_FALSE(t.acquire(t0 + 79ms)); // still the cap
    EXPECT_TRUE(t.acquire(t0 + 80ms));
}

TEST(LeaseTableTest, PoisonShardQuarantinedAfterTwoDeaths)
{
    LeaseTable t(2, fastOpts());
    const auto t0 = LeaseClock::now();
    auto g = t.acquire(t0);
    ASSERT_TRUE(g);
    t.fail(g->leaseId, t0);
    EXPECT_EQ(t.shardState(0), ShardState::Pending);
    g = t.acquire(t0 + 50ms);
    ASSERT_TRUE(g);
    ASSERT_EQ(g->shard, 0u);
    t.fail(g->leaseId, t0 + 50ms);
    EXPECT_EQ(t.shardState(0), ShardState::Quarantined);
    EXPECT_EQ(t.quarantinedCount(), 1u);

    // The table still finishes (Failed overall, not wedged).
    g = t.acquire(t0 + 50ms);
    ASSERT_TRUE(g);
    ASSERT_EQ(g->shard, 1u);
    EXPECT_EQ(t.complete(g->leaseId, 1),
              CompleteResult::Committed);
    EXPECT_TRUE(t.finished());
    EXPECT_FALSE(t.succeeded());
}

TEST(LeaseTableTest, MarkDoneCoversDedupAndRestartResume)
{
    LeaseTable t(3, fastOpts());
    EXPECT_TRUE(t.markDone(1));  // store already has it
    EXPECT_FALSE(t.markDone(1)); // idempotent
    EXPECT_EQ(t.doneCount(), 1u);

    // A quarantined shard whose file later shows up in the store
    // (another campaign computed it) is un-poisoned.
    const auto t0 = LeaseClock::now();
    for (int i = 0; i < 2; ++i) {
        const auto g = t.acquire(t0 + i * 100ms);
        ASSERT_TRUE(g);
        ASSERT_EQ(g->shard, 0u);
        t.fail(g->leaseId, t0);
    }
    ASSERT_EQ(t.shardState(0), ShardState::Quarantined);
    EXPECT_TRUE(t.markDone(0));
    EXPECT_EQ(t.quarantinedCount(), 0u);
    EXPECT_EQ(t.shardState(0), ShardState::Done);
}

TEST(LeaseTableTest, ExtendAllCompensatesCoordinatorStall)
{
    LeaseTable t(1, fastOpts());
    const auto t0 = LeaseClock::now();
    const auto g = t.acquire(t0);
    ASSERT_TRUE(g);
    // A 1s coordinator stall (e.g. model build) must not expire the
    // worker's 100ms lease once compensated.
    t.extendAll(1000ms);
    EXPECT_TRUE(t.expire(t0 + 1050ms).empty());
    ASSERT_EQ(t.expire(t0 + 1101ms).size(), 1u);
}

TEST(LeaseTableTest, NextEventTracksDeadlinesAndBackoffs)
{
    LeaseTable t(2, fastOpts());
    EXPECT_FALSE(t.nextEvent()); // nothing time-driven yet
    const auto t0 = LeaseClock::now();
    const auto g = t.acquire(t0);
    ASSERT_TRUE(g);
    ASSERT_TRUE(t.nextEvent());
    EXPECT_EQ(*t.nextEvent(), t0 + 100ms);
    t.fail(g->leaseId, t0); // backoff gate at t0 + 10ms
    ASSERT_TRUE(t.nextEvent());
    EXPECT_EQ(*t.nextEvent(), t0 + 10ms);
}

// -------------------------------------------------------------------
// Wire protocol: round-trips and hostile input.
// -------------------------------------------------------------------

serve::CampaignSpec
sampleSpec()
{
    serve::CampaignSpec s;
    s.cores = 2;
    s.targetUops = 20000;
    s.seed = 42;
    s.firstRank = 3;
    s.lastRank = 17;
    s.shardRows = 4;
    s.policies = {"LRU", "RND"};
    s.benchmarks = {"povray", "gromacs", "mcf"};
    return s;
}

TEST(ServeProtocolTest, SpecRoundTrips)
{
    serve::CampaignSpec spec = sampleSpec();
    EXPECT_EQ(serve::decodeSpec(serve::encodeSpec(spec)), spec);
    spec.fidelity = 1;
    spec.escalateBudget = 0.25;
    spec.escalateQuantile = 0.95;
    spec.escalateMetric = "WSU";
    EXPECT_EQ(serve::decodeSpec(serve::encodeSpec(spec)), spec);
}

TEST(ServeProtocolTest, LeaseRoundTrips)
{
    serve::LeaseMsg m;
    m.leaseId = 7;
    m.campaignId = 3;
    m.shard = 12;
    m.ttlMs = 2500;
    m.fingerprint = 0xdeadbeefcafef00dULL;
    m.dir = "/tmp/store/c-abc-def";
    m.spec = sampleSpec();
    const serve::LeaseMsg back = serve::decodeLease(serve::encodeLease(m));
    EXPECT_EQ(back.leaseId, m.leaseId);
    EXPECT_EQ(back.campaignId, m.campaignId);
    EXPECT_EQ(back.shard, m.shard);
    EXPECT_EQ(back.ttlMs, m.ttlMs);
    EXPECT_EQ(back.fingerprint, m.fingerprint);
    EXPECT_EQ(back.dir, m.dir);
    EXPECT_EQ(back.spec, m.spec);
}

TEST(ServeProtocolTest, StatusRoundTrips)
{
    serve::StatusMsg m;
    m.state = serve::CampaignState::Failed;
    m.shardsTotal = 5;
    m.shardsDone = 4;
    m.shardsDeduped = 2;
    m.shardsQuarantined = 1;
    m.leasesActive = 3;
    m.dir = "/store/c-1-2";
    m.message = "1 shard(s) quarantined as poison";
    const serve::StatusMsg back =
        serve::decodeStatus(serve::encodeStatus(m));
    EXPECT_EQ(back.state, m.state);
    EXPECT_EQ(back.shardsTotal, m.shardsTotal);
    EXPECT_EQ(back.shardsDone, m.shardsDone);
    EXPECT_EQ(back.shardsDeduped, m.shardsDeduped);
    EXPECT_EQ(back.shardsQuarantined, m.shardsQuarantined);
    EXPECT_EQ(back.leasesActive, m.leasesActive);
    EXPECT_EQ(back.dir, m.dir);
    EXPECT_EQ(back.message, m.message);
}

TEST(ServeProtocolTest, CampaignIdBodyRoundTrips)
{
    // StatusReq, StopReq and WaitReq all carry one campaign id.
    for (const std::uint64_t id : {0ull, 7ull, ~0ull})
        EXPECT_EQ(serve::decodeId(serve::encodeId(id)), id);
    const std::string frame = serve::encodeFrame(
        serve::MsgType::WaitReq, serve::encodeId(42));
    serve::FrameBuffer fb;
    fb.feed(frame.data(), frame.size());
    const auto f = fb.next();
    ASSERT_TRUE(f);
    EXPECT_EQ(f->type, serve::MsgType::WaitReq);
    EXPECT_EQ(serve::decodeId(f->body), 42u);
}

TEST(ServeProtocolTest, FrameBufferReassemblesByteByByte)
{
    const std::string frame = serve::encodeFrame(
        serve::MsgType::Submit, serve::encodeSpec(sampleSpec()));

    serve::FrameBuffer fb;
    for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
        fb.feed(frame.data() + i, 1);
        EXPECT_FALSE(fb.next()) << "frame popped early at byte " << i;
    }
    fb.feed(frame.data() + frame.size() - 1, 1);
    const auto f = fb.next();
    ASSERT_TRUE(f);
    EXPECT_EQ(f->type, serve::MsgType::Submit);
    EXPECT_EQ(serve::decodeSpec(f->body), sampleSpec());
}

TEST(ServeProtocolTest, FrameBufferPopsBackToBackFrames)
{
    const std::string two =
        serve::encodeFrame(serve::MsgType::RequestLease, "") +
        serve::encodeFrame(serve::MsgType::Shutdown, "");
    serve::FrameBuffer fb;
    fb.feed(two.data(), two.size());
    auto a = fb.next();
    auto b = fb.next();
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->type, serve::MsgType::RequestLease);
    EXPECT_EQ(b->type, serve::MsgType::Shutdown);
    EXPECT_FALSE(fb.next());
}

TEST(ServeProtocolTest, OversizedLengthPrefixThrows)
{
    // A desynchronized or hostile peer announcing a 64 MiB frame.
    const std::uint32_t huge = 64u << 20;
    char hdr[4];
    std::memcpy(hdr, &huge, 4);
    serve::FrameBuffer fb;
    fb.feed(hdr, 4);
    EXPECT_THROW(fb.next(), serve::ProtocolError);
}

TEST(ServeProtocolTest, TruncatedBodiesThrowEverywhere)
{
    const std::string full = serve::encodeSpec(sampleSpec());
    // Every proper prefix must fail loudly, never read past the
    // end: a peer can be SIGKILLed at any byte of a send.
    for (std::size_t len = 0; len < full.size(); ++len)
        EXPECT_THROW(
            serve::decodeSpec(std::string_view(full).substr(0, len)),
            serve::ProtocolError)
            << "prefix length " << len;
    const std::string lease_full =
        serve::encodeLease([] {
            serve::LeaseMsg m;
            m.spec = sampleSpec();
            m.dir = "/d";
            return m;
        }());
    for (std::size_t len = 0; len < lease_full.size(); ++len)
        EXPECT_THROW(serve::decodeLease(
                         std::string_view(lease_full).substr(0, len)),
                     serve::ProtocolError)
            << "prefix length " << len;
    const std::string id_full = serve::encodeId(9);
    for (std::size_t len = 0; len < id_full.size(); ++len)
        EXPECT_THROW(serve::decodeId(
                         std::string_view(id_full).substr(0, len)),
                     serve::ProtocolError)
            << "prefix length " << len;
}

TEST(ServeProtocolTest, TrailingGarbageRejected)
{
    serve::StatusMsg m;
    m.dir = "/d";
    std::string body = serve::encodeStatus(m);
    body.push_back('\0');
    EXPECT_THROW(serve::decodeStatus(body), serve::ProtocolError);
    EXPECT_THROW(
        serve::decodeId(serve::encodeId(1) + '\0'),
        serve::ProtocolError);
}

TEST(ServeProtocolTest, ReplyBodiesRoundTrip)
{
    const serve::DoneMsg done =
        serve::decodeDone(serve::encodeDone({7, 3, 12, true}));
    EXPECT_EQ(done.leaseId, 7u);
    EXPECT_EQ(done.campaignId, 3u);
    EXPECT_EQ(done.shard, 12u);
    EXPECT_TRUE(done.dedup);

    const serve::ReplyMsg failed =
        serve::decodeFailed(serve::encodeFailed({true, 9, "disk full"}));
    EXPECT_EQ(failed.id, 9u);
    EXPECT_EQ(failed.message, "disk full");

    const serve::ReplyMsg sub = serve::decodeSubmitReply(
        serve::encodeSubmitReply({true, 5, "queued"}));
    EXPECT_TRUE(sub.ok);
    EXPECT_EQ(sub.id, 5u);
    EXPECT_EQ(sub.message, "queued");

    const serve::ReplyMsg stop = serve::decodeStopReply(
        serve::encodeStopReply({false, 5, "campaign already done"}));
    EXPECT_FALSE(stop.ok);
    EXPECT_EQ(stop.id, 0u); // not on the wire
    EXPECT_EQ(stop.message, "campaign already done");

    EXPECT_EQ(serve::decodeText(serve::encodeText("{}")), "{}");
    EXPECT_THROW(serve::decodeText(serve::encodeText("{}") + '\0'),
                 serve::ProtocolError);
}

TEST(ServeProtocolTest, BitFlipsDecodeOrThrowProtocolError)
{
    // Frames carry no checksum, so a flipped bit may decode to other
    // values; it must never read past the body, allocate by a wild
    // count, or fail any other way than ProtocolError.
    serve::LeaseMsg lease;
    lease.spec = sampleSpec();
    lease.dir = "/store/c-1-2";
    serve::StatusMsg status;
    status.dir = "/d";
    status.message = "queued";
    using Decode = std::function<void(std::string_view)>;
    const std::pair<std::string, Decode> bodies[] = {
        {serve::encodeSpec(sampleSpec()),
         [](std::string_view b) { (void)serve::decodeSpec(b); }},
        {serve::encodeLease(lease),
         [](std::string_view b) { (void)serve::decodeLease(b); }},
        {serve::encodeStatus(status),
         [](std::string_view b) { (void)serve::decodeStatus(b); }},
        {serve::encodeDone({7, 3, 12, true}),
         [](std::string_view b) { (void)serve::decodeDone(b); }},
        {serve::encodeFailed({false, 7, "disk full"}),
         [](std::string_view b) { (void)serve::decodeFailed(b); }},
        {serve::encodeSubmitReply({true, 3, "ok"}),
         [](std::string_view b) { (void)serve::decodeSubmitReply(b); }},
        {serve::encodeStopReply({true, 0, "halting"}),
         [](std::string_view b) { (void)serve::decodeStopReply(b); }},
        {serve::encodeText("{}"),
         [](std::string_view b) { (void)serve::decodeText(b); }},
    };
    for (const auto &[full, decode] : bodies) {
        for (std::size_t byte = 0; byte < full.size(); ++byte) {
            for (int bit = 0; bit < 8; ++bit) {
                std::string flipped = full;
                flipped[byte] =
                    static_cast<char>(flipped[byte] ^ (1 << bit));
                try {
                    decode(flipped);
                } catch (const serve::ProtocolError &) {
                }
            }
        }
    }
}

/**
 * Size and FNV-1a of one fixed frame of every MsgType, recorded
 * before the message codec moved onto persist::Writer/Reader: a
 * changed value means a worker or client of an older build no
 * longer understands this one.
 */
TEST(ServeProtocolTest, EveryMessageBytesPinned)
{
    using serve::MsgType;
    serve::CampaignSpec spec = sampleSpec();
    spec.escalateBudget = 0.25;
    spec.escalateQuantile = 0.95;
    spec.escalateMetric = "WSU";
    serve::LeaseMsg lease;
    lease.leaseId = 7;
    lease.campaignId = 3;
    lease.shard = 12;
    lease.ttlMs = 2500;
    lease.fingerprint = 0xdeadbeefcafef00dULL;
    lease.dir = "/store/c-1-2";
    lease.spec = spec;
    serve::StatusMsg status;
    status.state = serve::CampaignState::Running;
    status.shardsTotal = 5;
    status.shardsDone = 4;
    status.shardsDeduped = 2;
    status.shardsQuarantined = 1;
    status.leasesActive = 3;
    status.dir = "/store/c-1-2";
    status.message = "1 shard(s) quarantined as poison";

    struct Pin
    {
        MsgType type;
        std::string body;
        std::size_t size;
        std::uint64_t fnv;
    };
    const Pin pins[] = {
        {MsgType::HelloWorker, serve::encodeId(4242), 13,
         0xff6caa87b4a8bc15ULL},
        {MsgType::RequestLease, "", 5, 0xd80d6eaea7dc8252ULL},
        {MsgType::Heartbeat, serve::encodeId(7), 13,
         0xc97e3bf516c63e5aULL},
        {MsgType::Done, serve::encodeDone({7, 3, 12, true}), 30,
         0x0eaa2b220805d7c8ULL},
        {MsgType::Failed,
         serve::encodeFailed({false, 7, "shard 12: disk full"}), 36,
         0x2e14bfdb30d037f1ULL},
        {MsgType::Lease, serve::encodeLease(lease), 182,
         0xe51f4318c27f170fULL},
        {MsgType::NoWork, serve::encodeNoWork(false), 6,
         0x90d7ff60054fe7f6ULL},
        {MsgType::Shutdown, "", 5, 0xd80d7eaea7dc9d82ULL},
        {MsgType::HelloClient, "", 5, 0xd80d4caea7dc488cULL},
        {MsgType::Submit, serve::encodeSpec(spec), 126,
         0x9456e082010426b1ULL},
        {MsgType::SubmitReply, serve::encodeSubmitReply({true, 3, ""}),
         18, 0xfdfa5cb8393e129dULL},
        {MsgType::StatusReq, serve::encodeId(3), 13,
         0xd81eac66af24a47eULL},
        {MsgType::StatusReply, serve::encodeStatus(status), 98,
         0xeb312b0cc02dcf6dULL},
        {MsgType::MetricsReq, "", 5, 0xd80d49aea7dc4373ULL},
        {MsgType::MetricsReply, serve::encodeText("{\"counters\":{}}"),
         24, 0xf12f3ebcdf0f26b1ULL},
        {MsgType::StopReq, serve::encodeId(3), 13,
         0x8a7556f05cb8cc32ULL},
        {MsgType::StopReply,
         serve::encodeStopReply(
             {true, 0, "halting; 2 lease(s) in flight will finish"}),
         51, 0x44bd5069d1263366ULL},
        {MsgType::WaitReq, serve::encodeId(3), 13,
         0x9a0c3a9ab559df3cULL},
    };
    ASSERT_EQ(std::size(pins), 18u); // every MsgType, in enum order
    for (const Pin &p : pins) {
        SCOPED_TRACE(static_cast<int>(p.type));
        const std::string frame = serve::encodeFrame(p.type, p.body);
        EXPECT_EQ(frame.size(), p.size);
        EXPECT_EQ(persist::fnv1a(frame), p.fnv)
            << "0x" << persist::toHex(persist::fnv1a(frame));
    }
}

// -------------------------------------------------------------------
// Result store: addressing, idempotent commits, corruption
// quarantine, and the two-process directory race.
// -------------------------------------------------------------------

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

persist::V3Manifest
tinyManifest()
{
    persist::V3Manifest m;
    m.fingerprint = 0x5eed;
    m.simulator = "badco";
    m.cores = 2;
    m.targetUops = 1000;
    m.instructions = 0;
    m.policies = {"LRU", "RND"};
    m.benchmarks = {"a", "b"};
    m.refIpc = {1.0, 1.0};
    m.popBenchmarks = 2;
    m.popCores = 2;
    m.firstRank = 0;
    m.lastRank = 3;
    m.shardRows = 2; // shard 0: 2 rows, shard 1: 1 row
    return m;
}

std::vector<double>
shardPayload(const persist::V3Manifest &m, std::uint64_t shard)
{
    std::vector<double> p(m.rowsInShard(shard) * m.policies.size() *
                          m.cores);
    for (std::size_t i = 0; i < p.size(); ++i)
        p[i] = static_cast<double>(shard * 100 + i) * 0.25;
    return p;
}

class ServeStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        root_ = (fs::temp_directory_path() /
                 (std::string("wsel_serve_store_") + info->name()))
                    .string();
        fs::remove_all(root_);
    }

    void TearDown() override { fs::remove_all(root_); }

    std::string root_;
};

TEST_F(ServeStoreTest, GeometryHashCoversSeedAndGeometry)
{
    const auto h = serve::campaignGeometryHash(1, 0, 100, 16);
    EXPECT_EQ(h, serve::campaignGeometryHash(1, 0, 100, 16));
    // The V3Manifest omits the base seed, so the geometry hash MUST
    // separate campaigns that differ only in seed.
    EXPECT_NE(h, serve::campaignGeometryHash(2, 0, 100, 16));
    EXPECT_NE(h, serve::campaignGeometryHash(1, 1, 100, 16));
    EXPECT_NE(h, serve::campaignGeometryHash(1, 0, 101, 16));
    EXPECT_NE(h, serve::campaignGeometryHash(1, 0, 100, 8));
}

TEST_F(ServeStoreTest, CampaignDirIsContentAddressed)
{
    serve::ResultStore store(root_);
    const std::string d1 = store.campaignDir(0xabc, 0x123);
    EXPECT_EQ(d1, store.campaignDir(0xabc, 0x123));
    EXPECT_NE(d1, store.campaignDir(0xabd, 0x123));
    EXPECT_NE(d1, store.campaignDir(0xabc, 0x124));
    EXPECT_EQ(d1.find(root_), 0u);
}

TEST_F(ServeStoreTest, CommitShardIsIdempotent)
{
    serve::ResultStore store(root_);
    const auto m = tinyManifest();
    const std::string dir = store.campaignDir(m.fingerprint, 1);
    store.ensureCampaignDir(dir);
    const auto payload = shardPayload(m, 0);

    EXPECT_FALSE(serve::ResultStore::hasShard(dir, m, 0));
    EXPECT_TRUE(serve::ResultStore::commitShard(
        dir, m, 0, {payload.data(), payload.size()}));
    EXPECT_TRUE(serve::ResultStore::hasShard(dir, m, 0));
    const std::string first =
        readFileBytes(persist::v3ShardPath(dir, 0));

    // The second commit (zombie worker, overlapping campaign) is a
    // no-op and leaves the bytes untouched.
    EXPECT_FALSE(serve::ResultStore::commitShard(
        dir, m, 0, {payload.data(), payload.size()}));
    EXPECT_EQ(readFileBytes(persist::v3ShardPath(dir, 0)), first);
}

TEST_F(ServeStoreTest, CorruptShardQuarantinedAndRecomputable)
{
    serve::ResultStore store(root_);
    const auto m = tinyManifest();
    const std::string dir = store.campaignDir(m.fingerprint, 1);
    store.ensureCampaignDir(dir);
    const auto payload = shardPayload(m, 0);
    ASSERT_TRUE(serve::ResultStore::commitShard(
        dir, m, 0, {payload.data(), payload.size()}));

    // Flip one payload byte; hasShard must reject AND move the file
    // aside so a re-commit can land.
    const std::string path = persist::v3ShardPath(dir, 0);
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(40);
        char c = 0;
        f.seekg(40);
        f.get(c);
        c ^= 0x10;
        f.seekp(40);
        f.put(c);
    }
    EXPECT_FALSE(serve::ResultStore::hasShard(dir, m, 0));
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".corrupt"));
    EXPECT_TRUE(serve::ResultStore::commitShard(
        dir, m, 0, {payload.data(), payload.size()}));
    EXPECT_TRUE(serve::ResultStore::hasShard(dir, m, 0));
}

TEST_F(ServeStoreTest, ManifestCommitCompletesCampaign)
{
    serve::ResultStore store(root_);
    const auto m = tinyManifest();
    const std::string dir =
        store.campaignDir(m.fingerprint, 0x77);
    store.ensureCampaignDir(dir);
    EXPECT_FALSE(serve::ResultStore::isComplete(dir));
    for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
        const auto p = shardPayload(m, s);
        serve::ResultStore::commitShard(dir, m, s,
                                        {p.data(), p.size()});
    }
    EXPECT_FALSE(serve::ResultStore::isComplete(dir));
    serve::ResultStore::commitManifest(dir, m);
    EXPECT_TRUE(serve::ResultStore::isComplete(dir));
    // Idempotent re-commit (a second overlapping campaign
    // finishing later).
    serve::ResultStore::commitManifest(dir, m);
    EXPECT_TRUE(serve::ResultStore::isComplete(dir));
}

TEST_F(ServeStoreTest, TwoProcessDirectoryCreationRace)
{
    // Two real processes race persist::ensureDirTree on the same
    // deep tree; EEXIST at any component must not fail either one.
    const std::string deep = root_ + "/a/b/c/d/e";
    const std::string worker = serve::findWorkerBinary();
    std::vector<pid_t> pids;
    for (int i = 0; i < 2; ++i)
        pids.push_back(serve::spawnProcess(
            {worker, "--mkdir-race", deep}));
    for (const pid_t pid : pids) {
        const int status = serve::waitProcess(pid);
        EXPECT_TRUE(serve::exitedCleanly(status))
            << serve::describeExit(status);
    }
    EXPECT_TRUE(fs::is_directory(deep));
}

// -------------------------------------------------------------------
// End-to-end: coordinator + real worker processes, with SIGKILL
// fault injection.  The model cache is shared across the suite so
// the BADCO models are built once.
// -------------------------------------------------------------------

/** In-process coordinator on a background thread. */
class Service
{
  public:
    explicit Service(const serve::CoordinatorOptions &opts)
        : coordinator_(opts), thread_([this] {
              try {
                  rc_ = coordinator_.run();
              } catch (const std::exception &e) {
                  ADD_FAILURE() << "coordinator died: " << e.what();
              }
          })
    {}

    ~Service() { stop(); }

    /** Begin the drain without waiting for it. */
    void requestStop() { coordinator_.requestStop(); }

    void
    stop()
    {
        if (thread_.joinable()) {
            coordinator_.requestStop();
            thread_.join();
        }
    }

    int exitCode() const { return rc_; }

  private:
    serve::Coordinator coordinator_;
    int rc_ = -1;
    std::thread thread_;
};

/**
 * One raw protocol connection to the coordinator, so a test can
 * count the frames a worker or client is sent.
 */
class RawPeer
{
  public:
    explicit RawPeer(const std::string &socket)
        : fd_(serve::connectUnix(socket))
    {
        EXPECT_TRUE(fd_.valid()) << socket;
    }

    void
    send(serve::MsgType type, std::string_view body = {})
    {
        EXPECT_TRUE(serve::sendFrame(fd_.get(), type, body));
    }

    void
    helloWorker()
    {
        send(serve::MsgType::HelloWorker,
             serve::encodeId(static_cast<std::uint64_t>(::getpid())));
    }

    /** The next frame; a test failure (and type 0) after 30 s. */
    serve::Frame
    next()
    {
        if (std::optional<serve::Frame> f =
                serve::recvFrame(fd_.get(), fb_, 30000))
            return std::move(*f);
        ADD_FAILURE() << "no frame within 30 s";
        return {static_cast<serve::MsgType>(0), {}};
    }

    /**
     * The answer to the pending RequestLease, asking again after
     * each NoWork keepalive; a test failure after 30 of them.
     */
    serve::Frame
    awaitLeaseReply()
    {
        for (int keepalives = 0; keepalives < 30; ++keepalives) {
            serve::Frame f = next();
            if (f.type != serve::MsgType::NoWork)
                return f;
            send(serve::MsgType::RequestLease);
        }
        ADD_FAILURE() << "only NoWork keepalives for 30 bounds";
        return {serve::MsgType::NoWork, {}};
    }

    /**
     * Expect no earlier request of this connection to have been
     * answered: the coordinator handles one connection's frames in
     * order, so the reply to a MetricsReq sent now comes after any
     * such answer.
     */
    void
    expectNoReplyPending()
    {
        send(serve::MsgType::MetricsReq);
        EXPECT_EQ(next().type, serve::MsgType::MetricsReply);
    }

  private:
    serve::Fd fd_;
    serve::FrameBuffer fb_;
};

/** Done body a worker sends for @p lease. */
std::string
doneBody(const serve::LeaseMsg &lease)
{
    // dedup: no shard file is written
    return serve::encodeDone(
        {lease.leaseId, lease.campaignId, lease.shard, true});
}

/**
 * Lower this process's soft RLIMIT_NOFILE so that exactly @p room
 * descriptors are free below it.
 */
void
limitFreeDescriptors(int room)
{
    int limit = 0;
    for (int free_fds = 0; free_fds < room; ++limit)
        if (::fcntl(limit, F_GETFD) == -1 && errno == EBADF)
            ++free_fds;
    rlimit rl{};
    if (::getrlimit(RLIMIT_NOFILE, &rl) != 0)
        ::_exit(3);
    rl.rlim_cur = static_cast<rlim_t>(limit);
    if (::setrlimit(RLIMIT_NOFILE, &rl) != 0)
        ::_exit(3);
}

/** CPU time @p clock has used, in seconds. */
double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    ::clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

class ServeDistributedTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        obs::enableMetrics();
        // Per process: ctest runs each test in its own process, in
        // parallel, and a sibling's TearDownTestSuite must not
        // delete the cache under a campaign that is writing to it.
        cacheDir_ = (fs::temp_directory_path() /
                     ("wsel_serve_test_model_cache_" +
                      std::to_string(::getpid())))
                        .string();
        fs::create_directories(cacheDir_);
    }

    static void
    TearDownTestSuite()
    {
        obs::enableMetrics(false);
        fs::remove_all(cacheDir_);
    }

    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::temp_directory_path() /
                (std::string("wsel_serve_e2e_") + info->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        socket_ = dir_ + "/serve.sock";
    }

    void TearDown() override { fs::remove_all(dir_); }

    /**
     * 4 benchmarks x 2 cores -> 10 workloads; 2 rows/shard -> 5
     * shards of 2x2x2 = 8 cells each (4 "population.cell" fault
     * hits per shard, one per workload x policy).
     */
    static serve::CampaignSpec
    tinySpec()
    {
        serve::CampaignSpec s;
        s.cores = 2;
        s.targetUops = 20000;
        s.seed = 1;
        s.firstRank = 0;
        s.lastRank = 0; // full population
        s.shardRows = 2;
        s.policies = {"LRU", "RND"};
        s.benchmarks = {"povray", "gromacs", "gcc", "mcf"};
        return s;
    }

    serve::CoordinatorOptions
    coordinatorOptions()
    {
        serve::CoordinatorOptions o;
        o.socketPath = socket_;
        o.storeRoot = dir_ + "/store";
        o.cacheDir = cacheDir_;
        o.lease.backoffBase = std::chrono::milliseconds(10);
        return o;
    }

    pid_t
    spawnWorker(const std::vector<std::string> &extra_env = {},
                const std::vector<std::string> &extra_args = {})
    {
        std::vector<std::string> argv = {
            serve::findWorkerBinary(), "--socket", socket_,
            "--cache-dir", cacheDir_};
        argv.insert(argv.end(), extra_args.begin(),
                    extra_args.end());
        return serve::spawnProcess(argv, extra_env);
    }

    static void
    expectKilled(pid_t pid)
    {
        const int status = serve::waitProcess(pid);
        EXPECT_TRUE(WIFSIGNALED(status) &&
                    WTERMSIG(status) == SIGKILL)
            << serve::describeExit(status);
    }

    static void
    expectClean(pid_t pid)
    {
        const int status = serve::waitProcess(pid);
        EXPECT_TRUE(serve::exitedCleanly(status))
            << serve::describeExit(status);
    }

    /**
     * The uninterrupted serial reference: simulate every shard
     * in this process and commit it to @p dir.
     */
    persist::V3Manifest
    writeReference(const serve::CampaignSpec &spec,
                   const std::string &dir)
    {
        serve::CampaignContext ctx(spec, cacheDir_);
        ctx.computeReferenceIpcs(1);
        const persist::V3Manifest &m = ctx.manifest();
        persist::ensureDirTree(dir);
        std::vector<double> payload;
        for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
            simulatePopulationShard(
                m, WorkloadSet::fullPopulation(ctx.population()),
                ctx.uncores(), ctx.models(), ctx.seed(), s, payload);
            serve::ResultStore::commitShard(
                dir, m, s, {payload.data(), payload.size()});
        }
        serve::ResultStore::commitManifest(dir, m);
        return m;
    }

    /** Expect every shard of @p dir to equal the reference's. */
    void
    expectShardsMatch(const std::string &dir,
                      const persist::V3Manifest &m,
                      const std::string &ref_dir)
    {
        ASSERT_TRUE(serve::ResultStore::isComplete(dir));
        for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
            EXPECT_EQ(readFileBytes(persist::v3ShardPath(dir, s)),
                      readFileBytes(persist::v3ShardPath(ref_dir, s)))
                << "shard " << s << " differs";
        }
    }

    /**
     * Poll a metrics counter of @p client until it reaches
     * @p want (30 s deadline); returns the last value read.
     */
    static double
    awaitCounter(serve::Client &client, const std::string &name,
                 double want)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        double v = -1.0;
        while (std::chrono::steady_clock::now() < deadline) {
            v = counterValue(client.metricsJson(), name);
            if (v >= want)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        return v;
    }

    /** Counter value out of the metrics JSON (-1 when absent). */
    static double
    counterValue(const std::string &json, const std::string &name)
    {
        const std::string key = "\"name\": \"" + name + "\"";
        const std::size_t at = json.find(key);
        if (at == std::string::npos)
            return -1.0;
        const std::string vkey = "\"value\": ";
        const std::size_t v = json.find(vkey, at);
        if (v == std::string::npos)
            return -1.0;
        return std::strtod(json.c_str() + v + vkey.size(), nullptr);
    }

    static std::string cacheDir_;
    std::string dir_;
    std::string socket_;
};

std::string ServeDistributedTest::cacheDir_;

TEST_F(ServeDistributedTest, KilledWorkersRecoverBitwiseIdentical)
{
    const serve::CampaignSpec spec = tinySpec();

    // Serial reference first (also warms the shared model cache).
    const persist::V3Manifest m =
        writeReference(spec, dir_ + "/reference");

    Service service(coordinatorOptions());
    serve::Client client(socket_);
    const std::uint64_t id = client.submit(spec);

    // One worker SIGKILLed mid-shard at a randomized cell, one
    // SIGKILLed at the shard boundary: after commitShard but
    // before its Done report (the zombie-commit window).
    std::mt19937_64 rng(static_cast<std::uint64_t>(
        ::testing::UnitTest::GetInstance()->random_seed()));
    const std::uint64_t nth =
        std::uniform_int_distribution<std::uint64_t>(1, 4)(rng);
    const pid_t mid_shard_victim = spawnWorker(
        {"WSEL_KILL_POINT=population.cell:" + std::to_string(nth)});
    const pid_t boundary_victim =
        spawnWorker({"WSEL_KILL_POINT=serve.shard-committed:1"});
    expectKilled(mid_shard_victim);
    expectKilled(boundary_victim);

    // Two healthy workers finish the campaign.
    const pid_t w1 = spawnWorker();
    const pid_t w2 = spawnWorker();
    const serve::StatusMsg st = client.waitFinished(id);
    EXPECT_EQ(st.state, serve::CampaignState::Done) << st.message;
    EXPECT_EQ(st.shardsTotal, m.shardCount());
    EXPECT_EQ(st.shardsDone, m.shardCount());
    EXPECT_EQ(st.shardsQuarantined, 0u);
    // The boundary victim committed its shard before dying, so the
    // re-lease found the file already present: a dedup.
    EXPECT_GE(st.shardsDeduped, 1u);

    service.stop(); // drain: healthy workers get Shutdown
    expectClean(w1);
    expectClean(w2);
    EXPECT_EQ(service.exitCode(), 0);

    // The recovered campaign must be indistinguishable from the
    // uninterrupted serial run, byte for byte.
    ASSERT_TRUE(serve::ResultStore::isComplete(st.dir));
    for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
        EXPECT_EQ(
            readFileBytes(persist::v3ShardPath(st.dir, s)),
            readFileBytes(
                persist::v3ShardPath(dir_ + "/reference", s)))
            << "shard " << s << " differs (kill nth=" << nth << ")";
    }
}

TEST_F(ServeDistributedTest, OverlappingCampaignDedupsAllShards)
{
    const serve::CampaignSpec spec = tinySpec();
    Service service(coordinatorOptions());

    serve::Client client(socket_);
    const pid_t w = spawnWorker();
    const std::uint64_t first = client.submit(spec);
    const serve::StatusMsg st1 = client.waitFinished(first);
    ASSERT_EQ(st1.state, serve::CampaignState::Done) << st1.message;
    EXPECT_EQ(st1.shardsDeduped, 0u);

    const double dedup_before =
        counterValue(client.metricsJson(), "serve.dedup_hits");

    // Same physics, same geometry: the second campaign maps to the
    // same store directory and must recompute nothing.
    const std::uint64_t second = client.submit(spec);
    const serve::StatusMsg st2 = client.waitFinished(second);
    EXPECT_EQ(st2.state, serve::CampaignState::Done) << st2.message;
    EXPECT_EQ(st2.dir, st1.dir);
    EXPECT_EQ(st2.shardsDone, st2.shardsTotal);
    EXPECT_EQ(st2.shardsDeduped, st2.shardsTotal);

    const double dedup_after =
        counterValue(client.metricsJson(), "serve.dedup_hits");
    EXPECT_GE(dedup_after,
              dedup_before + static_cast<double>(st2.shardsTotal));

    // A different seed is a DIFFERENT campaign (the manifest omits
    // the seed; the geometry hash must not).
    serve::CampaignSpec reseeded = spec;
    reseeded.seed = 2;
    const std::uint64_t third = client.submit(reseeded);
    const serve::StatusMsg st3 = client.waitFinished(third);
    EXPECT_EQ(st3.state, serve::CampaignState::Done) << st3.message;
    EXPECT_NE(st3.dir, st1.dir);
    EXPECT_EQ(st3.shardsDeduped, 0u);

    service.stop();
    expectClean(w);
}

/**
 * Two-phase mixed-fidelity escalation end to end
 * (docs/FIDELITY.md): a BADCO campaign submitted with
 * --escalate-budget makes the coordinator, after the sweep
 * commits, compute the escalation set from the error profile
 * beside its cache and re-lease ONLY the suspect shards at
 * detailed fidelity; real worker processes run both phases.
 */
TEST_F(ServeDistributedTest, EscalationReleasesSuspectShardsDetailed)
{
    serve::CampaignSpec spec = tinySpec();
    spec.escalateBudget = 0.3; // ceil(0.3 * 10 rows) = 3
    spec.escalateQuantile = 0.9;

    // An empty profile for this spec's suite: every bound is +inf,
    // every row straddles, the budget alone picks the set.
    const std::string ppath =
        fidelity::errorProfilePath(cacheDir_);
    {
        serve::CampaignContext ctx(spec, cacheDir_);
        fidelity::writeErrorProfile(
            ppath, fidelity::ErrorProfile(ctx.suite()));
    }

    Service service(coordinatorOptions());
    serve::Client client(socket_);
    const std::uint64_t id = client.submit(spec);
    const pid_t w1 = spawnWorker();
    const pid_t w2 = spawnWorker();
    const serve::StatusMsg st = client.waitFinished(id);
    EXPECT_EQ(st.state, serve::CampaignState::Done) << st.message;

    // Read metrics while the daemon is still up: stop() drains it
    // and a drained daemon answers nothing.
    const double started = counterValue(
        client.metricsJson(), "serve.escalations_started");
    EXPECT_GE(started, 1.0);

    service.stop();
    expectClean(w1);
    expectClean(w2);
    fs::remove(ppath);

    // The final dir is the detailed-phase campaign: it holds the
    // committed escalation set...
    ASSERT_TRUE(fidelity::hasEscalationRecord(st.dir));
    const fidelity::EscalationRecord rec =
        fidelity::readEscalationRecord(st.dir);
    EXPECT_EQ(rec.escalatedCount, 3u);
    EXPECT_NEAR(rec.budgetFraction, 0.3, 1e-12);

    // ...and detailed shards exactly where the bitmap says — no
    // manifest (the campaign is deliberately partial) and no
    // shard that only holds non-escalated rows.
    serve::CampaignSpec dspec = spec;
    dspec.fidelity = 1;
    dspec.escalateBudget = 0.0;
    serve::CampaignContext dctx(dspec, cacheDir_);
    const persist::V3Manifest &dm = dctx.manifest();
    EXPECT_EQ(rec.detailedFingerprint, dm.fingerprint);
    EXPECT_FALSE(
        fs::exists(fs::path(st.dir) / "manifest.bin"));
    std::uint64_t flagged_shards = 0;
    for (std::uint64_t s = 0; s < dm.shardCount(); ++s) {
        const std::uint64_t first = dm.shardFirstRank(s);
        bool flagged = false;
        for (std::uint64_t r = 0; r < dm.rowsInShard(s); ++r)
            flagged = flagged || rec.escalated(first + r);
        EXPECT_EQ(fs::exists(persist::v3ShardPath(st.dir, s)),
                  flagged)
            << "shard " << s;
        flagged_shards += flagged ? 1 : 0;
    }
    EXPECT_EQ(st.shardsTotal, dm.shardCount());
    EXPECT_EQ(st.shardsDone, dm.shardCount()); // unflagged pre-done
    EXPECT_GE(flagged_shards, 2u); // 3 rows cannot fit in 1 shard

    // The escalated shards' bytes are exactly what a pure detailed
    // campaign of the same geometry produces.
    std::vector<double> payload;
    fs::create_directories(dir_ + "/detref");
    for (std::uint64_t s = 0; s < dm.shardCount(); ++s) {
        if (!fs::exists(persist::v3ShardPath(st.dir, s)))
            continue;
        simulateDetailedPopulationShard(
            dm, WorkloadSet::fullPopulation(dctx.population()),
            dctx.coreConfig(), dctx.uncores(), dctx.suite(),
            dctx.seed(), s, 1, payload);
        serve::ResultStore::commitShard(
            dir_ + "/detref", dm, s,
            {payload.data(), payload.size()});
        EXPECT_EQ(readFileBytes(persist::v3ShardPath(st.dir, s)),
                  readFileBytes(
                      persist::v3ShardPath(dir_ + "/detref", s)))
            << "shard " << s;
    }

    // The phase-0 BADCO campaign is complete in its own store dir
    // (the escalation never mutates the committed sweep).
    serve::CampaignContext bctx(spec, cacheDir_);
    serve::ResultStore store(dir_ + "/store");
    const std::string bdir = store.campaignDir(
        bctx.manifest().fingerprint, bctx.geometryHash());
    EXPECT_TRUE(serve::ResultStore::isComplete(bdir));
}

/**
 * The in-process hybrid run and a distributed submission choose
 * their escalation set with the same planner, so one shape, one
 * profile and one set of knobs commit byte-identical
 * fidelity-bitmap.bin files on both paths.
 */
TEST_F(ServeDistributedTest, EscalationSetMatchesHybridCampaign)
{
    serve::CampaignSpec spec = tinySpec();
    spec.escalateBudget = 0.3;
    spec.escalateQuantile = 0.9;
    const serve::CampaignContext ctx(spec, cacheDir_);

    // Only mcf (the last benchmark) has a wide error bound, so the
    // intervals, not only the budget, shape the set.
    fidelity::ErrorProfile profile(ctx.suite());
    const std::uint32_t nb =
        static_cast<std::uint32_t>(ctx.suite().size());
    for (std::uint32_t b = 0; b < nb; ++b)
        for (int i = 0; i < 8; ++i)
            profile.record(b, b + 1 == nb ? 1.25 : 1.0, 1.0);
    const std::string ppath = fidelity::errorProfilePath(cacheDir_);
    fidelity::writeErrorProfile(ppath, profile);

    Service service(coordinatorOptions());
    serve::Client client(socket_);
    const std::uint64_t id = client.submit(spec);
    const pid_t w = spawnWorker();
    const serve::StatusMsg st = client.waitFinished(id);
    EXPECT_EQ(st.state, serve::CampaignState::Done) << st.message;
    service.stop();
    expectClean(w);
    fs::remove(ppath);

    HybridOptions opts;
    opts.seed = spec.seed;
    opts.shardCells = spec.shardRows * spec.policies.size();
    opts.quantile = spec.escalateQuantile;
    opts.budgetFraction = spec.escalateBudget;
    BadcoModelStore store(
        CoreConfig{}, spec.targetUops,
        UncoreConfig::forCores(spec.cores, PolicyKind::LRU)
            .llcHitLatency,
        cacheDir_);
    const std::string out = dir_ + "/hybrid";
    const HybridResult r = runHybridCampaign(
        ctx.population(), PolicyKind::LRU, PolicyKind::Random,
        ThroughputMetric::IPCT, spec.targetUops, store, ctx.suite(),
        profile, out, opts);
    EXPECT_GT(r.escalation.escalatedCount, 0u);
    EXPECT_EQ(readFileBytes(fidelity::escalationRecordPath(st.dir)),
              readFileBytes(fidelity::escalationRecordPath(out)));
}

/**
 * Escalation knobs out of their domain are refused at admission:
 * the campaign fails with the reason while a worker waits, and no
 * lease is granted.
 */
TEST_F(ServeDistributedTest, BadEscalationSpecFailsAtAdmission)
{
    Service service(coordinatorOptions());
    serve::Client client(socket_);
    const pid_t w = spawnWorker();
    EXPECT_GE(awaitCounter(client, "serve.workers_active", 1.0), 1.0);
    const double granted =
        counterValue(client.metricsJson(), "serve.leases_granted");

    const auto refused = [&](serve::CampaignSpec spec,
                             const std::string &reason) {
        const serve::StatusMsg st =
            client.waitFinished(client.submit(spec));
        EXPECT_EQ(st.state, serve::CampaignState::Failed)
            << reason;
        EXPECT_NE(st.message.find(reason), std::string::npos)
            << st.message;
    };
    serve::CampaignSpec spec = tinySpec();
    spec.escalateBudget = 1.5;
    refused(spec, "budget fraction");
    spec.escalateBudget = -0.25;
    refused(spec, "budget fraction");
    spec.escalateBudget = 0.3;
    spec.escalateQuantile = 1.0;
    refused(spec, "quantile");
    spec.escalateQuantile = 0.9;
    spec.escalateMetric = "XYZ";
    refused(spec, "unknown throughput metric");

    EXPECT_EQ(counterValue(client.metricsJson(), "serve.leases_granted"),
              granted);
    service.stop();
    expectClean(w);
}

/**
 * Escalation that cannot be planned for a reason of the daemon's
 * environment leaves the committed BADCO campaign Done, with the
 * reason in the status message `serve status` and `--wait` print.
 */
TEST_F(ServeDistributedTest, EscalationSkipReasonsReachDoneStatus)
{
    serve::CampaignSpec spec = tinySpec();
    spec.escalateBudget = 0.3;
    const auto skipped = [&](const serve::CoordinatorOptions &opts,
                             const std::string &reason) {
        Service service(opts);
        serve::Client client(socket_);
        // Registered before the submission: a fully deduped rerun
        // finishes before a late worker could connect.
        const pid_t w = spawnWorker();
        EXPECT_GE(awaitCounter(client, "serve.workers_active", 1.0),
                  1.0);
        const serve::StatusMsg st =
            client.waitFinished(client.submit(spec));
        service.stop();
        expectClean(w);
        EXPECT_EQ(st.state, serve::CampaignState::Done) << st.message;
        EXPECT_NE(st.message.find("escalation skipped"),
                  std::string::npos)
            << st.message;
        EXPECT_NE(st.message.find(reason), std::string::npos)
            << st.message;
        // The final dir is the BADCO campaign, without a set.
        EXPECT_TRUE(serve::ResultStore::isComplete(st.dir));
        EXPECT_FALSE(fidelity::hasEscalationRecord(st.dir));
    };

    const std::string ppath = fidelity::errorProfilePath(cacheDir_);
    fs::remove(ppath);
    skipped(coordinatorOptions(), "error profile: cannot open");

    fidelity::writeErrorProfile(
        ppath, fidelity::ErrorProfile({findProfile("povray")}));
    skipped(coordinatorOptions(), "different suite");
    fs::remove(ppath);

    serve::CoordinatorOptions no_cache = coordinatorOptions();
    no_cache.cacheDir.clear();
    skipped(no_cache, "no cache dir");
}

TEST_F(ServeDistributedTest, PoisonShardQuarantinedCampaignFails)
{
    const serve::CampaignSpec spec = tinySpec();
    Service service(coordinatorOptions());
    serve::Client client(socket_);
    const double workers0 = counterValue(client.metricsJson(),
                                         "serve.workers_active");
    const std::uint64_t id = client.submit(spec);

    // Two workers in a row die the moment they start shard 2; the
    // second death quarantines it instead of killing workers
    // forever.
    for (int i = 0; i < 2; ++i)
        expectKilled(
            spawnWorker({"WSEL_KILL_POINT=serve.shard-start:1",
                         "WSEL_KILL_SHARD=2"}));

    // The second victim may already have committed every other
    // shard, so the campaign can finish before the healthy worker
    // below says hello.  A drain only sends Shutdown to registered
    // workers, so before stopping the daemon wait until it has
    // dropped both victims, then until it has registered the
    // healthy one.
    const auto awaitWorkers = [&](double want) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        double workers = -1.0;
        while (std::chrono::steady_clock::now() < deadline) {
            workers = counterValue(client.metricsJson(),
                                   "serve.workers_active");
            if (workers == want)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        EXPECT_EQ(workers, want);
    };
    awaitWorkers(workers0);

    // A healthy worker finishes everything else; the campaign
    // completes as Failed, not wedged.
    const pid_t w = spawnWorker();
    awaitWorkers(workers0 + 1.0);

    const serve::StatusMsg st = client.waitFinished(id);
    EXPECT_EQ(st.state, serve::CampaignState::Failed);
    EXPECT_NE(st.message.find("quarantined"), std::string::npos)
        << st.message;
    EXPECT_EQ(st.shardsTotal, 5u);
    EXPECT_EQ(st.shardsDone, 4u);
    EXPECT_EQ(st.shardsQuarantined, 1u);

    // The store holds every good shard, no manifest (incomplete),
    // and no file for the poisoned shard.
    EXPECT_FALSE(serve::ResultStore::isComplete(st.dir));
    for (const std::uint64_t s : {0u, 1u, 3u, 4u})
        EXPECT_TRUE(fs::exists(persist::v3ShardPath(st.dir, s)))
            << "shard " << s;
    EXPECT_FALSE(fs::exists(persist::v3ShardPath(st.dir, 2)));

    service.stop();
    expectClean(w);
}

TEST_F(ServeDistributedTest, StopHaltsCampaignAndKeepsPaidShards)
{
    const serve::CampaignSpec spec = tinySpec();
    Service service(coordinatorOptions());
    serve::Client client(socket_);

    // Stopping an unknown campaign is rejected.
    EXPECT_THROW(client.stop(999), FatalError);

    // First campaign activates; an identical second one queues
    // behind it.  Stopping the queued one drops it before any
    // worker ever sees it.
    const std::uint64_t a = client.submit(spec);
    const std::uint64_t b = client.submit(spec);
    EXPECT_NE(client.stop(b).find("before activation"),
              std::string::npos);
    EXPECT_EQ(client.status(b).state,
              serve::CampaignState::Stopped);

    // A worker that dies right after committing its first shard
    // leaves one paid-for shard file in the store while the
    // campaign keeps running.
    expectKilled(
        spawnWorker({"WSEL_KILL_POINT=serve.shard-committed:1"}));

    // Stop the running campaign: no leases are in flight (the
    // victim's died with it), so it finalizes as Stopped, keeping
    // the committed shard.
    client.stop(a);
    const serve::StatusMsg sta = client.waitFinished(a);
    EXPECT_EQ(sta.state, serve::CampaignState::Stopped)
        << sta.message;
    EXPECT_NE(sta.message.find("stopped by client"),
              std::string::npos)
        << sta.message;
    EXPECT_FALSE(serve::ResultStore::isComplete(sta.dir));
    EXPECT_TRUE(fs::exists(persist::v3ShardPath(sta.dir, 0)));

    // A final campaign cannot be stopped again.
    EXPECT_THROW(client.stop(a), FatalError);

    // Resubmitting dedups the shard the stopped run already paid
    // for and completes the campaign.
    const pid_t w = spawnWorker();
    const serve::StatusMsg st =
        client.waitFinished(client.submit(spec));
    EXPECT_EQ(st.state, serve::CampaignState::Done) << st.message;
    EXPECT_EQ(st.dir, sta.dir);
    EXPECT_GE(st.shardsDeduped, 1u);

    EXPECT_GE(counterValue(client.metricsJson(),
                           "serve.campaigns_stopped"),
              2.0);

    service.stop();
    expectClean(w);
}

TEST_F(ServeDistributedTest, RestartedCoordinatorResumesFromStore)
{
    const serve::CampaignSpec spec = tinySpec();
    std::string campaign_dir;

    // First coordinator runs the campaign to completion ...
    {
        Service service(coordinatorOptions());
        serve::Client client(socket_);
        const pid_t w = spawnWorker();
        const serve::StatusMsg st =
            client.waitFinished(client.submit(spec));
        ASSERT_EQ(st.state, serve::CampaignState::Done)
            << st.message;
        campaign_dir = st.dir;
        service.stop();
        expectClean(w);
    }

    // ... then "crashes": simulate interrupted work by removing one
    // shard and the manifest (the manifest is only written once all
    // shards exist, so this is exactly a mid-campaign kill state).
    const std::string lost = persist::v3ShardPath(campaign_dir, 3);
    const std::string lost_bytes = readFileBytes(lost);
    fs::remove(lost);
    fs::remove(persist::v3ManifestPath(campaign_dir));
    ASSERT_FALSE(serve::ResultStore::isComplete(campaign_dir));

    // A fresh coordinator's admission scan must mark the surviving
    // shards done and lease only the missing one.
    Service service(coordinatorOptions());
    serve::Client client(socket_);
    const pid_t w = spawnWorker();
    const serve::StatusMsg st =
        client.waitFinished(client.submit(spec));
    EXPECT_EQ(st.state, serve::CampaignState::Done) << st.message;
    EXPECT_EQ(st.dir, campaign_dir);
    EXPECT_EQ(st.shardsDeduped, st.shardsTotal - 1);
    EXPECT_TRUE(serve::ResultStore::isComplete(campaign_dir));
    EXPECT_EQ(readFileBytes(lost), lost_bytes)
        << "recomputed shard differs from the original";

    service.stop();
    expectClean(w);
}

TEST_F(ServeDistributedTest, ThreadedWorkersMatchSerialReference)
{
    // Workers run each shard's cells on 4 threads through the batch
    // runner; the bytes must still be the serial engine's.
    const serve::CampaignSpec spec = tinySpec();
    const persist::V3Manifest m =
        writeReference(spec, dir_ + "/reference");

    Service service(coordinatorOptions());
    serve::Client client(socket_);
    const pid_t w1 = spawnWorker({}, {"--jobs", "4"});
    const pid_t w2 = spawnWorker({}, {"--jobs", "4"});
    const serve::StatusMsg st =
        client.waitFinished(client.submit(spec));
    EXPECT_EQ(st.state, serve::CampaignState::Done) << st.message;
    EXPECT_EQ(st.shardsDeduped, 0u);

    service.stop();
    expectClean(w1);
    expectClean(w2);
    expectShardsMatch(st.dir, m, dir_ + "/reference");
}

TEST_F(ServeDistributedTest, LongFlushKeepsLeaseByProgress)
{
    // One shard, run as ONE batch-runner flush on one thread: no
    // row boundary falls inside it, so only the heartbeat thread
    // can renew the lease. The TTL is a quarter of the shard's
    // measured serial time, so the flush outlives it ~4 times; at
    // least 100 ms, because the worker loads the campaign's models
    // under the lease before any cell can finish.
    serve::CampaignSpec spec = tinySpec();
    spec.benchmarks = {"povray", "gromacs", "gcc",
                       "mcf",    "milc",    "namd"};
    spec.policies = {"LRU", "RND", "FIFO", "DIP", "DRRIP"};
    spec.targetUops = 200000;
    spec.shardRows = 21; // C(7, 2) workloads: the whole population
    { serve::CampaignContext warm(spec, cacheDir_); } // model build
    const auto t0 = std::chrono::steady_clock::now();
    const persist::V3Manifest m =
        writeReference(spec, dir_ + "/reference");
    const auto serial = std::chrono::steady_clock::now() - t0;
    ASSERT_EQ(m.shardCount(), 1u);
    const std::uint64_t cells = m.rowsInShard(0) * m.policies.size();

    serve::CoordinatorOptions opts = coordinatorOptions();
    opts.lease.ttl = std::max(
        std::chrono::milliseconds(100),
        std::chrono::duration_cast<std::chrono::milliseconds>(
            serial / 4));
    Service service(opts);
    serve::Client client(socket_);
    const double expired0 =
        counterValue(client.metricsJson(), "serve.leases_expired");
    const double dedup0 =
        counterValue(client.metricsJson(), "serve.dedup_hits");
    const pid_t w = spawnWorker(
        {"WSEL_BATCH_CELLS=" + std::to_string(cells)},
        {"--jobs", "1"});
    const serve::StatusMsg st =
        client.waitFinished(client.submit(spec));
    EXPECT_EQ(st.state, serve::CampaignState::Done) << st.message;
    EXPECT_EQ(counterValue(client.metricsJson(),
                           "serve.leases_expired"),
              expired0)
        << "ttl " << opts.lease.ttl.count() << " ms";
    EXPECT_EQ(counterValue(client.metricsJson(), "serve.dedup_hits"),
              dedup0);

    service.stop();
    expectClean(w);
    expectShardsMatch(st.dir, m, dir_ + "/reference");
}

TEST_F(ServeDistributedTest, WedgedWorkerLosesLeaseAndCommitsLate)
{
    // The failure matrix's "worker wedged" row: a worker that
    // stops making progress (SIGSTOP) sends no heartbeats, so its
    // lease is reclaimed and the shard moves; once it resumes, its
    // late report is a duplicate completion, never a double count.
    const serve::CampaignSpec spec = tinySpec();
    const persist::V3Manifest m =
        writeReference(spec, dir_ + "/reference");

    serve::CoordinatorOptions opts = coordinatorOptions();
    opts.lease.ttl = std::chrono::milliseconds(1000);
    Service service(opts);
    serve::Client client(socket_);
    const std::string json0 = client.metricsJson();
    const double expired0 =
        counterValue(json0, "serve.leases_expired");
    const double dup0 =
        counterValue(json0, "serve.duplicate_completions");
    const std::uint64_t id = client.submit(spec);

    // Freeze the victim as soon as it holds its first lease: it is
    // then still loading the campaign's models.
    const pid_t victim = spawnWorker();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (client.status(id).leasesActive == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(::kill(victim, SIGSTOP), 0);
    EXPECT_GE(awaitCounter(client, "serve.leases_expired",
                           expired0 + 1.0),
              expired0 + 1.0);

    // A healthy worker finishes the campaign, the reclaimed shard
    // included; then the victim wakes up and reports its lease.
    const pid_t w = spawnWorker();
    const serve::StatusMsg st = client.waitFinished(id);
    EXPECT_EQ(st.state, serve::CampaignState::Done) << st.message;
    EXPECT_EQ(st.shardsQuarantined, 0u);
    ASSERT_EQ(::kill(victim, SIGCONT), 0);
    EXPECT_GE(awaitCounter(client, "serve.duplicate_completions",
                           dup0 + 1.0),
              dup0 + 1.0);

    service.stop();
    expectClean(victim);
    expectClean(w);
    expectShardsMatch(st.dir, m, dir_ + "/reference");
}

TEST_F(ServeDistributedTest, LateWorkerExitsPromptly)
{
    // A worker that arrives after the coordinator has drained must
    // not wait out its 60 s receive timeout on a listener nobody
    // serves: the drained coordinator closed and unlinked it, so
    // the worker gives up within its connect timeout.
    Service service(coordinatorOptions());
    service.stop();
    EXPECT_EQ(service.exitCode(), 0);
    EXPECT_FALSE(fs::exists(socket_));

    const auto t0 = std::chrono::steady_clock::now();
    const pid_t late = spawnWorker();
    std::optional<int> status;
    while (!(status = serve::pollProcess(late)) &&
           std::chrono::steady_clock::now() - t0 <
               std::chrono::seconds(20))
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (!status) {
        ::kill(late, SIGKILL);
        (void)serve::waitProcess(late);
        FAIL() << "late worker still running after 20 s";
    }
    EXPECT_TRUE(WIFEXITED(*status) && WEXITSTATUS(*status) == 1)
        << serve::describeExit(*status);
}

TEST_F(ServeDistributedTest, ParkedLeaseRequestIsAnsweredBySubmit)
{
    const serve::CampaignSpec spec = tinySpec();
    { serve::CampaignContext warm(spec, cacheDir_); } // model build
    Service service(coordinatorOptions());

    // Nothing to lease yet: the request is parked, not refused.
    RawPeer worker(socket_);
    worker.helloWorker();
    worker.send(serve::MsgType::RequestLease);
    worker.expectNoReplyPending();

    // Activation answers it.
    serve::Client client(socket_);
    const std::uint64_t id = client.submit(spec);
    const serve::Frame f = worker.awaitLeaseReply();
    ASSERT_EQ(f.type, serve::MsgType::Lease);
    const serve::LeaseMsg lease = serve::decodeLease(f.body);
    EXPECT_EQ(lease.campaignId, id);
    EXPECT_EQ(lease.shard, 0u);
}

TEST_F(ServeDistributedTest, DrainSendsShutdownToParkedWorkerAtOnce)
{
    serve::CampaignSpec spec = tinySpec();
    spec.shardRows = 10; // the whole population in one shard
    { serve::CampaignContext warm(spec, cacheDir_); }
    serve::CoordinatorOptions opts = coordinatorOptions();
    opts.lease.ttl = std::chrono::milliseconds(60000); // never expires
    Service service(opts);
    serve::Client client(socket_);
    (void)client.submit(spec);

    // One worker holds the only shard; the other is parked.
    RawPeer holder(socket_);
    holder.helloWorker();
    holder.send(serve::MsgType::RequestLease);
    const serve::Frame f = holder.awaitLeaseReply();
    ASSERT_EQ(f.type, serve::MsgType::Lease);
    RawPeer parked(socket_);
    parked.helloWorker();
    parked.send(serve::MsgType::RequestLease);
    parked.expectNoReplyPending();

    // The drain answers the parked request while the holder's
    // lease, and so the drain, is still open.
    service.requestStop();
    EXPECT_EQ(parked.awaitLeaseReply().type, serve::MsgType::Shutdown);
    holder.expectNoReplyPending();

    // Closing the last lease ends the drain.
    holder.send(serve::MsgType::Done,
                doneBody(serve::decodeLease(f.body)));
    EXPECT_EQ(holder.next().type, serve::MsgType::Shutdown);
    service.stop();
    EXPECT_EQ(service.exitCode(), 0);
}

TEST_F(ServeDistributedTest, ParkedWorkerOutlivesKeepalivesAndTakesLease)
{
    const serve::CampaignSpec spec = tinySpec();
    { serve::CampaignContext warm(spec, cacheDir_); }
    Service service(coordinatorOptions());

    // With no campaign, each request is parked and answered with a
    // NoWork keepalive after kParkBound; the worker asks again.
    RawPeer worker(socket_);
    worker.helloWorker();
    for (int i = 0; i < 2; ++i) {
        worker.send(serve::MsgType::RequestLease);
        EXPECT_EQ(worker.next().type, serve::MsgType::NoWork)
            << "keepalive " << i;
    }

    // Past two keepalive bounds, the same connection takes a lease.
    worker.send(serve::MsgType::RequestLease);
    serve::Client client(socket_);
    (void)client.submit(spec);
    EXPECT_EQ(worker.awaitLeaseReply().type, serve::MsgType::Lease);
}

TEST_F(ServeDistributedTest, WaitIsAnsweredOnceAtCompletion)
{
    serve::CampaignSpec spec = tinySpec();
    spec.shardRows = 10; // one shard, held by the test's worker
    { serve::CampaignContext warm(spec, cacheDir_); }
    Service service(coordinatorOptions());

    RawPeer client(socket_);
    client.send(serve::MsgType::HelloClient);
    client.send(serve::MsgType::Submit, serve::encodeSpec(spec));
    const serve::Frame sub = client.next();
    ASSERT_EQ(sub.type, serve::MsgType::SubmitReply);
    const serve::ReplyMsg accepted = serve::decodeSubmitReply(sub.body);
    ASSERT_TRUE(accepted.ok);
    const std::uint64_t id = accepted.id;
    client.send(serve::MsgType::WaitReq, serve::encodeId(id));

    RawPeer worker(socket_);
    worker.helloWorker();
    worker.send(serve::MsgType::RequestLease);
    const serve::Frame f = worker.awaitLeaseReply();
    ASSERT_EQ(f.type, serve::MsgType::Lease);

    // The campaign runs for at least 300 ms, long enough for six
    // replies to a 50 ms status poll; the long poll sends none.
    std::this_thread::sleep_for(300ms);
    client.expectNoReplyPending();

    // Once the worker's barrier returns, the coordinator has
    // handled Done, so the client's next request is read in a later
    // loop iteration than Done: the answer to the wait, sent in
    // Done's iteration, must come first.
    worker.send(serve::MsgType::Done, doneBody(serve::decodeLease(f.body)));
    worker.expectNoReplyPending();
    client.send(serve::MsgType::MetricsReq);
    const serve::Frame reply = client.next();
    ASSERT_EQ(reply.type, serve::MsgType::StatusReply);
    EXPECT_EQ(serve::decodeStatus(reply.body).state,
              serve::CampaignState::Done);
    EXPECT_EQ(client.next().type, serve::MsgType::MetricsReply);
    client.expectNoReplyPending(); // exactly one reply
}

TEST_F(ServeDistributedTest, ManifestMatchesInProcessCampaign)
{
    // Only the coordinator computes reference IPCs; its committed
    // manifest must equal the in-process engine's.
    const serve::CampaignSpec spec = tinySpec();
    Service service(coordinatorOptions());
    serve::Client client(socket_);
    const pid_t w = spawnWorker();
    const serve::StatusMsg st =
        client.waitFinished(client.submit(spec));
    ASSERT_EQ(st.state, serve::CampaignState::Done) << st.message;
    service.stop();
    expectClean(w);

    std::vector<BenchmarkProfile> suite;
    for (const std::string &name : spec.benchmarks)
        suite.push_back(findProfile(name));
    std::vector<PolicyKind> policies;
    for (const std::string &p : spec.policies)
        policies.push_back(parsePolicyKind(p));
    BadcoModelStore store(
        CoreConfig{}, spec.targetUops,
        UncoreConfig::forCores(spec.cores, PolicyKind::LRU)
            .llcHitLatency,
        cacheDir_);
    PopulationOptions opts;
    opts.seed = spec.seed;
    opts.shardCells = spec.shardRows * policies.size();
    opts.resume = false;
    (void)runBadcoPopulationCampaign(
        WorkloadPopulation(static_cast<std::uint32_t>(suite.size()),
                           spec.cores),
        policies, spec.targetUops, store, suite, {},
        dir_ + "/inproc", opts);

    const persist::V3Manifest got = persist::readV3Manifest(st.dir);
    const persist::V3Manifest want =
        persist::readV3Manifest(dir_ + "/inproc");
    ASSERT_EQ(got.refIpc.size(), want.refIpc.size());
    for (std::size_t i = 0; i < want.refIpc.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.refIpc[i]),
                  std::bit_cast<std::uint64_t>(want.refIpc[i]))
            << spec.benchmarks[i];
    EXPECT_EQ(got.fingerprint, want.fingerprint);
    EXPECT_EQ(got.simulator, want.simulator);
    EXPECT_EQ(got.cores, want.cores);
    EXPECT_EQ(got.targetUops, want.targetUops);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.policies, want.policies);
    EXPECT_EQ(got.benchmarks, want.benchmarks);
    EXPECT_EQ(got.popBenchmarks, want.popBenchmarks);
    EXPECT_EQ(got.popCores, want.popCores);
    EXPECT_EQ(got.firstRank, want.firstRank);
    EXPECT_EQ(got.lastRank, want.lastRank);
    EXPECT_EQ(got.shardRows, want.shardRows);
}

TEST_F(ServeDistributedTest, FdExhaustionPausesAcceptAndRecovers)
{
    // The failure matrix's fd-exhaustion row.  The coordinator runs
    // in a child process whose descriptor limit leaves kRoom free:
    // one for the client, the rest for its store writes, or for
    // the extra connections that use them up.  accept() then fails
    // with EMFILE and leaves the connection queued.
    constexpr int kRoom = 6;
    constexpr int kExtra = 8;
    const serve::CampaignSpec spec = tinySpec();
    const persist::V3Manifest m =
        writeReference(spec, dir_ + "/reference");

    const pid_t coord = ::fork();
    ASSERT_GE(coord, 0);
    if (coord == 0) {
        int rc = 2;
        try {
            serve::CoordinatorOptions o = coordinatorOptions();
            o.exitWhenIdle = true;
            serve::Coordinator c(o);
            limitFreeDescriptors(kRoom);
            rc = c.run();
        } catch (...) {
        }
        ::_exit(rc);
    }

    std::optional<serve::StatusMsg> st;
    std::vector<pid_t> workers;
    {
        serve::Client client(socket_);
        const std::uint64_t id = client.submit(spec);
        // Activation reads the model cache: let it finish first.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (client.status(id).state == serve::CampaignState::Queued &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));

        std::vector<serve::Fd> extra;
        for (int i = 0; i < kExtra; ++i)
            extra.push_back(serve::connectUnix(socket_));
        EXPECT_GE(awaitCounter(client, "serve.accept_errors", 1.0), 1.0);

        // Exhausted, the coordinator must idle, not spin on the
        // listener.
        clockid_t clock{};
        EXPECT_EQ(::clock_getcpuclockid(coord, &clock), 0);
        const double cpu0 = cpuSeconds(clock);
        std::this_thread::sleep_for(200ms);
        const double cpu = cpuSeconds(clock) - cpu0;
        EXPECT_LT(cpu, 0.05) << "coordinator CPU over 200 ms";

        // Workers queue behind the extras; closing those frees the
        // descriptors and the campaign completes.
        workers.push_back(spawnWorker());
        workers.push_back(spawnWorker());
        extra.clear();
        st = client.waitFinished(id);
    }
    // The idle coordinator shuts the workers down and exits.
    EXPECT_TRUE(serve::exitedCleanly(serve::waitProcess(coord)));
    for (const pid_t pid : workers)
        expectClean(pid);
    ASSERT_TRUE(st);
    EXPECT_EQ(st->state, serve::CampaignState::Done) << st->message;
    expectShardsMatch(st->dir, m, dir_ + "/reference");
}

} // namespace

} // namespace wsel
