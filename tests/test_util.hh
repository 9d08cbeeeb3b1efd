/**
 * @file
 * Shared helpers for the wsel test suite: small fast benchmark
 * profiles and simulation shortcuts so unit tests stay quick.
 */

#ifndef WSEL_TESTS_TEST_UTIL_HH
#define WSEL_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "badco/badco_model.hh"
#include "cpu/detailed_core.hh"
#include "mem/uncore.hh"
#include "stats/persist.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_store.hh"

namespace wsel::test
{

/** A light, fast profile for unit tests (mostly L1-resident). */
inline BenchmarkProfile
lightProfile(std::uint64_t seed = 7)
{
    BenchmarkProfile p;
    p.name = "test-light";
    p.seed = seed;
    p.loadFrac = 0.30;
    p.storeFrac = 0.10;
    p.branchFrac = 0.15;
    p.fpFrac = 0.05;
    p.l1Frac = 0.90;
    p.hotFrac = 0.08;
    p.streamFrac = 0.01;
    p.randomFrac = 0.01;
    p.chaseFrac = 0.0;
    p.l1Bytes = 4 * 1024;
    p.hotBytes = 12 * 1024;
    p.footprintBytes = 1 * 1024 * 1024;
    p.staticBlocks = 256;
    p.validate();
    return p;
}

/** A memory-heavy profile (streams, random, chase). */
inline BenchmarkProfile
heavyProfile(std::uint64_t seed = 11)
{
    BenchmarkProfile p;
    p.name = "test-heavy";
    p.seed = seed;
    p.loadFrac = 0.32;
    p.storeFrac = 0.10;
    p.branchFrac = 0.12;
    p.fpFrac = 0.02;
    p.l1Frac = 0.70;
    p.hotFrac = 0.10;
    p.streamFrac = 0.10;
    p.randomFrac = 0.06;
    p.chaseFrac = 0.04;
    p.l1Bytes = 4 * 1024;
    p.hotBytes = 24 * 1024;
    p.footprintBytes = 4 * 1024 * 1024;
    p.chaseBytes = 64 * 1024;
    p.staticBlocks = 256;
    p.validate();
    return p;
}

/** Run a single detailed core to its target and return it. */
inline CoreStats
runSingleCore(const BenchmarkProfile &profile, UncoreIf &uncore,
              std::uint64_t target, std::uint64_t seed = 1)
{
    CoreConfig cfg;
    DetailedCore core(cfg, TraceStore::global().cursor(profile),
                      uncore, 0, target, seed);
    runToTarget(core);
    return core.stats();
}

/** A per-process file name in the temporary directory. */
inline std::string
scratchPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("wsel_" + name + "_" + std::to_string(::getpid()) +
             ".bin"))
        .string();
}

/** The bytes of @p m's sealed model file (BadcoModel::save). */
inline std::string
modelFileBytes(const BadcoModel &m)
{
    const std::string path = scratchPath("model");
    m.save(path);
    std::string bytes = persist::readFile(path);
    std::filesystem::remove(path);
    return bytes;
}

} // namespace wsel::test

#endif // WSEL_TESTS_TEST_UTIL_HH
