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
 */

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "badco/badco_model.hh"
#include "sim/multicore.hh"
#include "stats/persist.hh"
#include "trace/benchmark_profile.hh"

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
}

TEST(DetailedGolden, BadcoModelBytes)
{
    const BadcoModel m = buildBadcoModel(
        findProfile("mcf"), CoreConfig{}, kGoldenUops,
        UncoreConfig::forCores(4, PolicyKind::LRU).llcHitLatency);
    std::ostringstream os;
    m.save(os);
    const std::string bytes = os.str();
    EXPECT_EQ(bytes.size(), 250450u);
    EXPECT_EQ(persist::fnv1a(bytes), 0xe74baf17e65fe3e7ull)
        << std::hex << persist::fnv1a(bytes);
}

} // namespace wsel
