/**
 * @file
 * Golden digests pinning the shared uncore bit for bit: one fixed
 * synthetic four-core request stream replayed under every
 * replacement policy with the LLC prefetchers off, ip-stride only,
 * stream only and both. Each digest folds every access()
 * completion cycle, the LLC counters, the per-core counters and the
 * FSB busy time, so any change to a tag decision, a replacement
 * update, a prefetch proposal, an MSHR merge or a bus slot shows up.
 *
 * BadcoGolden covers only the five paper policies with both
 * prefetchers on; these cover the rest of the uncore's
 * configuration space. The constants were recorded while the LLC
 * still dispatched its replacement policy and prefetchers through
 * virtual calls.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/replacement.hh"
#include "mem/uncore.hh"
#include "stats/rng.hh"

namespace wsel
{

namespace
{

/** Prefetcher setups, in golden-table column order. */
struct PrefetchSetup
{
    const char *name;
    bool ipStride;
    bool stream;
};

const PrefetchSetup kSetups[] = {
    {"none", false, false},
    {"ipstride", true, false},
    {"stream", false, true},
    {"both", true, true},
};

/** Every PolicyKind, in golden-table row order. */
const PolicyKind kPolicies[] = {
    PolicyKind::LRU,   PolicyKind::Random, PolicyKind::FIFO,
    PolicyKind::DIP,   PolicyKind::DRRIP,  PolicyKind::SRRIP,
    PolicyKind::BRRIP, PolicyKind::BIP,    PolicyKind::LIP,
    PolicyKind::NRU,   PolicyKind::PLRU,
};

constexpr std::uint32_t kCores = 4;
constexpr std::uint64_t kRequests = 40000;
constexpr std::uint64_t kSeed = 2013;

/** FNV-1a over the eight little-endian bytes of each value. */
class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Replay the fixed stream and digest everything observable. Each
 * core mixes an ascending and a descending line stream, a strided
 * PC, a hot set that fits the LLC and a random scan four times its
 * size; a quarter of demand requests write, and a few requests are
 * core prefetches or L1 writebacks, so dirty evictions, the write
 * buffer, MSHR merges and MSHR stalls are all exercised.
 */
std::uint64_t
replayDigest(PolicyKind policy, const PrefetchSetup &setup)
{
    UncoreConfig cfg = UncoreConfig::forCores(kCores, policy);
    cfg.ipStridePrefetch = setup.ipStride;
    cfg.streamPrefetch = setup.stream;
    Uncore u(cfg, kCores, kSeed);

    Rng rng(kSeed);
    std::vector<std::uint64_t> up(kCores, 0);
    std::vector<std::uint64_t> down(kCores, 1u << 20);
    std::vector<std::uint64_t> strided(kCores, 0);
    std::uint64_t cycle = 0;
    Fnv fnv;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
        cycle += rng.nextInt(4);
        const auto core =
            static_cast<std::uint32_t>(rng.nextInt(kCores));
        const std::uint64_t kind = rng.nextInt(100);
        std::uint64_t vaddr;
        std::uint64_t pc;
        if (kind < 20) {
            vaddr = (1ull << 24) + 64 * up[core]++;
            pc = 0x400100;
        } else if (kind < 30) {
            vaddr = (1ull << 26) + 64 * down[core]--;
            pc = 0x400200;
        } else if (kind < 45) {
            strided[core] += 3;
            vaddr = (1ull << 28) + 64 * strided[core];
            pc = 0x400300 + 4 * (strided[core] % 2);
        } else if (kind < 75) {
            vaddr = 64 * rng.nextInt(256) + rng.nextInt(64);
            pc = 0x400400 + 4 * rng.nextInt(8);
        } else {
            vaddr = (1ull << 30) + 64 * rng.nextInt(8192);
            pc = 0x400500 + 4 * rng.nextInt(64);
        }
        const std::uint64_t op = rng.nextInt(100);
        if (op < 5) {
            u.writeback(cycle, core, vaddr);
            continue;
        }
        const bool is_prefetch = op < 10;
        const bool is_write = !is_prefetch && op >= 75;
        fnv.add(u.access(cycle, core, vaddr, is_write, pc,
                         is_prefetch));
    }

    const CacheStats &s = u.llcStats();
    for (std::uint64_t v :
         {s.demandAccesses, s.demandHits, s.demandMisses,
          s.prefetchAccesses, s.prefetchHits, s.prefetchMisses,
          s.writebacksOut, u.fsbBusyCycles()})
        fnv.add(v);
    for (std::uint32_t c = 0; c < kCores; ++c) {
        const UncoreCoreStats &cs = u.coreStats(c);
        for (std::uint64_t v : {cs.reads, cs.writes, cs.demandMisses,
                                cs.writebacksIn,
                                cs.totalDemandLatency})
            fnv.add(v);
    }
    return fnv.value();
}

/** Digests at [policy row][prefetch setup column]. */
const std::uint64_t kGolden[11][4] = {
    // LRU
    {0x8bff58b165204a45ull, 0xa3251960ed88f78ull,
     0x8d0655f5d05ee2acull, 0xa3f50776df39d821ull},
    // RND
    {0x80168bfdda0558efull, 0x27096ec56ad17a05ull,
     0x680af7ca7527299bull, 0xe5ec9f6d44a66ee0ull},
    // FIFO
    {0xdc03bb171401bb1eull, 0x84847f068225aac3ull,
     0x4ff00917cbaf30c6ull, 0x1cd966c293841624ull},
    // DIP
    {0x7ddf9e883a1b535bull, 0x4b9899427ec1e79aull,
     0x4b8a18f08b149c71ull, 0x5dfd11407a6c82fbull},
    // DRRIP
    {0xe304821893196d21ull, 0xd54be5acdb1c9751ull,
     0x906354a9fd0dd65eull, 0x58c039b64cca252cull},
    // SRRIP
    {0x2bd44dc5170d56dull, 0x42cd49ede1e8a467ull,
     0x319d4b3507be0354ull, 0x84e22b37f8da2db3ull},
    // BRRIP
    {0x755937900781f6eaull, 0xa1a480768d1fa20dull,
     0x334006c5196d34f1ull, 0x7197a979ca548fd0ull},
    // BIP
    {0x84d5a34e0eb1dff0ull, 0xf8fc312cb79d2f4eull,
     0x66a0740210113504ull, 0x78e69d32e7e0f0b0ull},
    // LIP
    {0x16c0f8ffbdb59c8dull, 0x7e3c64c427d0bf8dull,
     0xbf2e1b2abefa0c94ull, 0xfed6f168579bc1b1ull},
    // NRU
    {0x72126151c811307full, 0x1825e5f8410d8c0cull,
     0xf7ae92b91e75da80ull, 0x52077ba5a93e600dull},
    // PLRU
    {0xd58efbba889253c1ull, 0xc32fce086052bab4ull,
     0xdd1e398e17531813ull, 0xfb80d7263350eab1ull},
};

} // namespace

TEST(UncoreGolden, EveryPolicyAndPrefetchSetupBitwise)
{
    std::ostringstream table;
    bool all_match = true;
    for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
        table << "    /* " << toString(kPolicies[p]) << " */ {";
        for (std::size_t s = 0; s < std::size(kSetups); ++s) {
            const std::uint64_t got =
                replayDigest(kPolicies[p], kSetups[s]);
            table << std::hex << "0x" << got << "ull"
                  << (s + 1 < std::size(kSetups) ? ", " : "},\n");
            EXPECT_EQ(got, kGolden[p][s])
                << toString(kPolicies[p]) << " prefetch "
                << kSetups[s].name;
            all_match = all_match && got == kGolden[p][s];
        }
    }
    EXPECT_TRUE(all_match) << "recorded digests:\n" << table.str();
}

} // namespace wsel
