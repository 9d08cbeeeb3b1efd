/**
 * @file
 * Ablations of the DIP and DRRIP design parameters (DESIGN.md §5):
 * PSEL width, leader-set spacing, bimodal throttle and RRPV width,
 * evaluated on a thrash-plus-reuse traffic mix where the insertion
 * policy matters most.
 */

#include <cstdio>

#include "bench_util.hh"
#include "cache/cache.hh"

namespace
{

using namespace wsel;

const CacheGeometry kGeom{64 * 1024, 16, 64}; // 1024 lines

/**
 * Hit rate on mixed traffic: a recency-friendly hot set (half the
 * capacity), a cyclic thrash scan at 1.5x capacity, and noise.
 */
double
runTraffic(Cache &cache)
{
    Rng rng(7);
    std::uint64_t hits = 0, total = 0;
    for (std::uint64_t round = 0; round < 60000; ++round) {
        std::uint64_t addr;
        const double r = rng.nextDouble();
        if (r < 0.55) {
            addr = 64 * rng.nextInt(512); // hot: 512 lines
        } else if (r < 0.9) {
            addr = (1ULL << 24) + 64 * (round % 1536); // thrash
        } else {
            addr = (1ULL << 26) + 64 * rng.nextInt(16384); // noise
        }
        hits += cache.access(addr, false).hit;
        ++total;
    }
    return static_cast<double>(hits) / static_cast<double>(total);
}

double
dipHitRate(const DuelingConfig &cfg)
{
    Cache c(kGeom, PolicyKind::DIP, 1, "dip-ablation", cfg);
    return runTraffic(c);
}

double
drripHitRate(const DuelingConfig &cfg)
{
    Cache c(kGeom, PolicyKind::DRRIP, 1, "drrip-ablation", cfg);
    return runTraffic(c);
}

} // namespace

int
main()
{
    using namespace wsel;

    std::printf("ABLATION: insertion-policy design parameters\n");
    std::printf("traffic: 55%% reuse (0.5x capacity) + 35%% thrash "
                "scan (1.5x capacity) + 10%% noise\n\n");

    std::printf("baseline hit rates:\n");
    for (PolicyKind k :
         {PolicyKind::LRU, PolicyKind::Random, PolicyKind::FIFO,
          PolicyKind::NRU, PolicyKind::PLRU, PolicyKind::SRRIP,
          PolicyKind::BRRIP, PolicyKind::LIP, PolicyKind::BIP,
          PolicyKind::DIP, PolicyKind::DRRIP}) {
        Cache c(kGeom, k, 1);
        std::printf("  %-6s %.4f\n", toString(k).c_str(),
                    runTraffic(c));
    }

    std::printf("\nDIP leader-set spacing (one leader pair per N "
                "sets; paper-standard 32):\n");
    for (std::uint32_t spacing : {4u, 8u, 16u, 32u, 64u}) {
        DuelingConfig cfg;
        cfg.leaderSpacing = spacing;
        std::printf("  spacing %2u: hit rate %.4f\n", spacing,
                    dipHitRate(cfg));
    }

    std::printf("\nDIP PSEL width:\n");
    for (std::uint32_t bits : {6u, 8u, 10u, 12u}) {
        DuelingConfig cfg;
        cfg.pselBits = bits;
        std::printf("  psel %2u bits: hit rate %.4f\n", bits,
                    dipHitRate(cfg));
    }

    std::printf("\nDIP/BIP bimodal throttle (1-in-N MRU "
                "insertions):\n");
    for (std::uint32_t eps : {8u, 16u, 32u, 64u, 128u}) {
        DuelingConfig cfg;
        cfg.bimodalEpsilon = eps;
        std::printf("  epsilon %3u: hit rate %.4f\n", eps,
                    dipHitRate(cfg));
    }

    std::printf("\nDRRIP RRPV width:\n");
    for (std::uint32_t bits : {1u, 2u, 3u, 4u}) {
        DuelingConfig cfg;
        cfg.rrpvBits = bits;
        std::printf("  rrpv %u bits: hit rate %.4f\n", bits,
                    drripHitRate(cfg));
    }

    std::printf("\nexpected shape: dueling parameters are "
                "second-order (DIP robust across them);\nRRPV of 2 "
                "bits is the sweet spot, as in Jaleel et al.\n");
    return 0;
}
