/**
 * @file
 * Benchmark characterization: run each benchmark alone on the
 * detailed simulator and extract the feature vector used for
 * automatic classification (core/classify). This is the simulation
 * half of the paper's §II-B cluster-analysis alternative to manual
 * MPKI classes.
 */

#ifndef WSEL_SIM_CHARACTERIZE_HH
#define WSEL_SIM_CHARACTERIZE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core_config.hh"
#include "mem/uncore_config.hh"
#include "trace/benchmark_profile.hh"

namespace wsel
{

/** Single-thread characterization of one benchmark. */
struct BenchmarkFeatures
{
    std::string name;

    /** @name Instruction-mix features (fractions of µops). */
    /** @{ */
    double loadFrac = 0.0;
    double storeFrac = 0.0;
    double branchFrac = 0.0;
    /** @} */

    /** @name Behaviour features (measured, not profile inputs). */
    /** @{ */
    double ipc = 0.0;            ///< alone on the reference uncore
    double dl1Mpki = 0.0;        ///< L1D misses per kilo-µop
    double llcMpki = 0.0;        ///< LLC demand misses per kilo-µop
    double branchMispredictRate = 0.0;
    double dtlbMpki = 0.0;
    /** @} */

    /**
     * Flatten to the feature vector used for clustering:
     * {loadFrac, storeFrac, branchFrac, ipc, dl1Mpki, llcMpki,
     *  branchMispredictRate, dtlbMpki}.
     */
    std::vector<double> toVector() const;

    /** Index of llcMpki in toVector() (classification order key). */
    static constexpr std::size_t kLlcMpkiColumn = 5;
};

/**
 * Characterize one benchmark by running it alone on the detailed
 * simulator.
 */
BenchmarkFeatures characterizeBenchmark(
    const BenchmarkProfile &profile, const CoreConfig &core_cfg,
    const UncoreConfig &uncore_cfg, std::uint64_t target_uops,
    std::uint64_t seed = 1);

/**
 * Characterize a whole suite (suite order preserved).  Each
 * benchmark runs with the same @p seed, so the result does not
 * depend on @p jobs; with jobs != 1 the benchmarks run
 * concurrently on an exec/ thread pool (0 asks for
 * exec::defaultJobs()).
 */
std::vector<BenchmarkFeatures> characterizeSuite(
    const std::vector<BenchmarkProfile> &suite,
    const CoreConfig &core_cfg, const UncoreConfig &uncore_cfg,
    std::uint64_t target_uops, std::uint64_t seed = 1,
    std::size_t jobs = 1);

/** Feature matrix for core/classify from characterizations. */
std::vector<std::vector<double>> featureMatrix(
    const std::vector<BenchmarkFeatures> &features);

} // namespace wsel

#endif // WSEL_SIM_CHARACTERIZE_HH
