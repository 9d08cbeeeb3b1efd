/**
 * @file
 * Golden values pinning the detailed core's timing bit for bit:
 * four-core DetailedMulticoreSim IPCs under LRU and DRRIP (the
 * hybrid campaign's escalated-cell shape), the single-thread
 * reference IPCs, and the bytes of one serialized BADCO model
 * (built by running the detailed core against a perfect uncore).
 *
 * The constants were recorded from the event-skipping core before
 * its cycle loop was made event-driven; any change to a cycle
 * count, an uncore request or its timing shows up here.
 *
 * BadcoGolden pins the BADCO simulator the same way: four-core
 * BadcoMulticoreSim IPCs under all five paper policies, the same
 * cells through BadcoBatchRunner at one and four threads, the
 * single-machine reference IPCs, and one cell each with a window
 * override, a lower outstanding-load cap and halted (not
 * restarted) finished threads. Its constants were recorded while
 * the batch runner still had its own copy of the node walk, so a
 * regression shared by every caller of the walk still shows up.
 */

#include <bit>
#include <cstdint>
#include <span>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "badco/badco_model.hh"
#include "cache/replacement.hh"
#include "sim/batch.hh"
#include "sim/model_store.hh"
#include "sim/multicore.hh"
#include "stats/persist.hh"
#include "trace/benchmark_profile.hh"
#include "test_util.hh"

namespace wsel
{

namespace
{

constexpr std::uint64_t kGoldenUops = 20000;

std::vector<std::uint64_t>
ipcBits(const std::vector<double> &ipc)
{
    std::vector<std::uint64_t> bits;
    bits.reserve(ipc.size());
    for (double v : ipc)
        bits.push_back(std::bit_cast<std::uint64_t>(v));
    return bits;
}

struct GoldenCell
{
    PolicyKind policy;
    std::vector<std::uint32_t> workload;
    std::uint64_t seed;
    std::vector<std::uint64_t> ipcBits;
};

} // namespace

TEST(DetailedGolden, FourCoreCellsBitwise)
{
    const std::vector<GoldenCell> cells = {
        {PolicyKind::LRU,
         {0, 5, 11, 20},
         101,
         {0x3fd534c2c1bd288cull, 0x3fd07286bca1af28ull,
          0x3fc20edc9d8099b6ull, 0x3faf4c1a6e389fe6ull}},
        {PolicyKind::LRU,
         {2, 2, 17, 21},
         202,
         {0x3fd3a88f2d22c191ull, 0x3fd3a76672ad36bcull,
          0x3fb02a32593dbe0dull, 0x3fb4522309863dd6ull}},
        {PolicyKind::LRU,
         {16, 18, 19, 21},
         303,
         {0x3fc43bda003d1f4cull, 0x3fa57a8169ded22full,
          0x3fa6d350d539eb1full, 0x3fa31367273ede7aull}},
        {PolicyKind::DRRIP,
         {0, 5, 11, 20},
         101,
         {0x3fd53016828d0f68ull, 0x3fd01e6166e4564eull,
          0x3fc3216f3f125a1cull, 0x3fafea321f4ae081ull}},
        {PolicyKind::DRRIP,
         {2, 2, 17, 21},
         202,
         {0x3fd42a1a78cf31a5ull, 0x3fd4269be50ff8b7ull,
          0x3fb0b8a82648fdecull, 0x3fb47e4232fd374cull}},
        {PolicyKind::DRRIP,
         {16, 18, 19, 21},
         303,
         {0x3fc47ee8dd49d578ull, 0x3fa7655f0c1ecb36ull,
          0x3fa7f85bba9db27dull, 0x3fa4691d571a2d36ull}},
    };
    const auto &suite = spec2006Suite();
    for (const GoldenCell &c : cells) {
        DetailedMulticoreSim sim(
            CoreConfig{}, UncoreConfig::forCores(4, c.policy), 4,
            kGoldenUops, c.seed);
        const SimResult r = sim.run(Workload(c.workload), suite);
        std::ostringstream got;
        for (std::uint64_t b : ipcBits(r.ipc))
            got << std::hex << "0x" << b << "ull, ";
        EXPECT_EQ(ipcBits(r.ipc), c.ipcBits)
            << toString(c.policy) << " seed " << c.seed << ": "
            << got.str();
    }
}

TEST(DetailedGolden, ReferenceIpcsBitwise)
{
    const auto &all = spec2006Suite();
    const std::vector<BenchmarkProfile> suite = {all[1], all[8],
                                                 all[14], all[21]};
    DetailedMulticoreSim sim(
        CoreConfig{}, UncoreConfig::forCores(4, PolicyKind::DRRIP),
        4, kGoldenUops, 7);
    const std::vector<std::uint64_t> want = {
        0x3fd93c915cdee3bcull, 0x3fe0a87212ec6903ull,
        0x3fcf2ac476f55c0cull, 0x3fbe942f628e3d96ull};
    const std::vector<std::uint64_t> got =
        ipcBits(sim.referenceIpcs(suite));
    std::ostringstream os;
    for (std::uint64_t b : got)
        os << std::hex << "0x" << b << "ull, ";
    EXPECT_EQ(got, want) << os.str();
    // Spread over threads, the cells land in suite order.
    EXPECT_EQ(ipcBits(sim.referenceIpcs(suite, 3)), want);
}

TEST(DetailedGolden, BadcoModelBytes)
{
    const BadcoModel m = buildBadcoModel(
        findProfile("mcf"), CoreConfig{}, kGoldenUops,
        UncoreConfig::forCores(4, PolicyKind::LRU).llcHitLatency);
    // The model's content, not its container: the sealed file's
    // body, between the 12-byte magic and version and the 8-byte
    // checksum.  It is the earlier unsealed stream without its
    // 4-byte magic (250450 bytes, FNV-1a 0xe74baf17e65fe3e7).
    const std::string file = test::modelFileBytes(m);
    ASSERT_GT(file.size(), 20u);
    const std::string body = file.substr(12, file.size() - 20);
    EXPECT_EQ(body.size(), 250446u);
    EXPECT_EQ(persist::fnv1a(body), 0xacde75accf7ec15cull)
        << std::hex << persist::fnv1a(body);
}

// -------------------------------------------------------------------
// BADCO
// -------------------------------------------------------------------

namespace
{

/** Six suite benchmarks; golden workloads index into this list. */
const std::vector<BenchmarkProfile> &
badcoSuite()
{
    static const std::vector<BenchmarkProfile> suite = [] {
        const auto &all = spec2006Suite();
        return std::vector<BenchmarkProfile>{all[0],  all[5],
                                             all[11], all[16],
                                             all[19], all[20]};
    }();
    return suite;
}

/** BADCO models of badcoSuite(), built once per process. */
const std::vector<const BadcoModel *> &
badcoModels()
{
    static BadcoModelStore store(
        CoreConfig{}, kGoldenUops,
        UncoreConfig::forCores(4, PolicyKind::LRU).llcHitLatency);
    static const std::vector<const BadcoModel *> models =
        store.getSuite(badcoSuite());
    return models;
}

std::string
hexBits(const std::vector<std::uint64_t> &bits)
{
    std::ostringstream os;
    for (std::uint64_t b : bits)
        os << std::hex << "0x" << b << "ull, ";
    return os.str();
}

const std::vector<std::vector<std::uint32_t>> kBadcoWorkloads = {
    {0, 1, 2, 5}, {1, 3, 3, 4}};

constexpr std::uint64_t kBadcoSeed = 404;

/**
 * IPC bits of kBadcoWorkloads[w] under paperPolicies()[p], at
 * index p * 2 + w.
 */
const std::vector<std::vector<std::uint64_t>> kBadcoCellBits = {
    {0x3fd4e719c4d63ea4ull, 0x3fca6da28f6bbf7eull,
     0x3fbe909635262c85ull, 0x3fb026eed7aadd98ull},
    {0x3fc31952c0f2e08cull, 0x3fc8c2c75e943bbcull,
     0x3fc8f3d5ee1bebfdull, 0x3fb2586c4a0bb3d9ull},
    {0x3fd51f9e1f43462eull, 0x3fca7d3f16e50803ull,
     0x3fbbf0d403a9053full, 0x3fad606785e7b1feull},
    {0x3fc2ff5836f0cae5ull, 0x3fc86d8df0e74da8ull,
     0x3fc84e43b101a401ull, 0x3fb1a7a96b941b71ull},
    {0x3fd5475a0f5f2abcull, 0x3fc95ffb0bfc0d3aull,
     0x3fbb34d6c30ba06dull, 0x3fac4886e2129e14ull},
    {0x3fc23acf2048eb3dull, 0x3fc7ec92d8a2039dull,
     0x3fc7d0fef80004e1ull, 0x3fb1156575d1c8a7ull},
    {0x3fd522d50d305bfcull, 0x3fcad7670101ad76ull,
     0x3fc027ad38caf8a4ull, 0x3fb13f8864edee82ull},
    {0x3fc5d316e32e3f9aull, 0x3fc96c4d5e10b7dcull,
     0x3fc9985ae4b927bdull, 0x3fb54a74839d9fa1ull},
    {0x3fd4fc98909fa21dull, 0x3fcb4a8e932bb4f9ull,
     0x3fc02b4eb8a1ecaeull, 0x3fb12b432ea971b9ull},
    {0x3fc41feaf10884cfull, 0x3fc8d578d447abaaull,
     0x3fc8ab8164d37883ull, 0x3fb4d46c0a34e305ull},
};

} // namespace

TEST(BadcoGolden, FourCoreCellsBitwise)
{
    const auto &models = badcoModels();
    const auto &policies = paperPolicies();
    ASSERT_EQ(kBadcoCellBits.size(),
              policies.size() * kBadcoWorkloads.size());
    for (std::size_t p = 0; p < policies.size(); ++p) {
        const BadcoMulticoreSim sim(
            UncoreConfig::forCores(4, policies[p]), 4, kGoldenUops,
            kBadcoSeed);
        for (std::size_t w = 0; w < kBadcoWorkloads.size(); ++w) {
            const auto got = ipcBits(
                sim.run(Workload(kBadcoWorkloads[w]), models).ipc);
            EXPECT_EQ(got, kBadcoCellBits[p * 2 + w])
                << toString(policies[p]) << " workload " << w << ": "
                << hexBits(got);
        }
    }
}

TEST(BadcoGolden, BatchRunnerCellsBitwise)
{
    const auto &models = badcoModels();
    const auto &policies = paperPolicies();
    ASSERT_EQ(kBadcoCellBits.size(),
              policies.size() * kBadcoWorkloads.size());
    std::vector<UncoreConfig> ucfgs;
    for (PolicyKind p : policies)
        ucfgs.push_back(UncoreConfig::forCores(4, p));
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        BadcoBatchRunner runner({ucfgs.data(), ucfgs.size()}, 4,
                                kGoldenUops, models, jobs);
        std::vector<double> ipc(kBadcoCellBits.size() * 4);
        for (std::size_t p = 0; p < policies.size(); ++p) {
            for (std::size_t w = 0; w < kBadcoWorkloads.size(); ++w)
                runner.add(kBadcoSeed, static_cast<std::uint32_t>(p),
                           std::span<const std::uint32_t>(
                               kBadcoWorkloads[w]),
                           ipc.data() + (p * 2 + w) * 4);
        }
        runner.run();
        for (std::size_t c = 0; c < kBadcoCellBits.size(); ++c) {
            const auto got = ipcBits(std::vector<double>(
                ipc.begin() + c * 4, ipc.begin() + c * 4 + 4));
            EXPECT_EQ(got, kBadcoCellBits[c])
                << "jobs " << jobs << " cell " << c << ": "
                << hexBits(got);
        }
    }
}

TEST(BadcoGolden, ReferenceIpcsBitwise)
{
    const BadcoMulticoreSim sim(
        UncoreConfig::forCores(4, PolicyKind::DRRIP), 4, kGoldenUops,
        7);
    const std::vector<std::uint64_t> want = {
        0x3fe284e0bf4b5f60ull, 0x3fe37da54035e35full,
        0x3fd4c19d66343d4eull, 0x3fe0508088276a6eull,
        0x3fc81a118bcf5566ull, 0x3fb9966c4caa60a6ull,
    };
    const auto got = ipcBits(sim.referenceIpcs(badcoModels()));
    EXPECT_EQ(got, want) << hexBits(got);
    const auto threaded = ipcBits(sim.referenceIpcs(badcoModels(), 4));
    EXPECT_EQ(threaded, want) << hexBits(threaded);
}

TEST(BadcoGolden, MachineKnobsBitwise)
{
    const auto &models = badcoModels();
    const Workload w(kBadcoWorkloads[0]);
    const UncoreConfig cfg =
        UncoreConfig::forCores(4, PolicyKind::DIP);

    // Window override: every machine runs at most 48 µops past an
    // incomplete load instead of its calibrated window.
    const std::vector<std::uint64_t> want_window = {
        0x3fdc76f5a9605312ull, 0x3fd0c8c4337b0abcull,
        0x3fc2718bb97c960bull, 0x3fb45f978ec9ff8dull};
    const BadcoMulticoreSim narrow(cfg, 4, kGoldenUops, kBadcoSeed,
                                   48);
    const auto window = ipcBits(narrow.run(w, models).ipc);
    EXPECT_EQ(window, want_window) << "window 48: " << hexBits(window);

    // Outstanding-load cap of four instead of sixteen.
    const std::vector<std::uint64_t> want_capped = {
        0x3fd5097cdade9d3bull, 0x3fcb66e65a0dc449ull,
        0x3fc010a800839ae1ull, 0x3fb128e7cee1bf4full};
    const BadcoMulticoreSim capped(cfg, 4, kGoldenUops, kBadcoSeed,
                                   0, 4);
    const auto outstanding = ipcBits(capped.run(w, models).ipc);
    EXPECT_EQ(outstanding, want_capped)
        << "max_outstanding 4: " << hexBits(outstanding);

    // Finished threads halt instead of restarting.
    const std::vector<std::uint64_t> want_halted = {
        0x3fd522d50d305bfcull, 0x3fccb8320a7723d9ull,
        0x3fc353c198af4636ull, 0x3fb4dcdfd63db4b4ull};
    BadcoMulticoreSim halting(cfg, 4, kGoldenUops, kBadcoSeed);
    halting.restartFinishedThreads(false);
    const auto halted = ipcBits(halting.run(w, models).ipc);
    EXPECT_EQ(halted, want_halted)
        << "halted threads: " << hexBits(halted);
}

} // namespace wsel
