/**
 * @file
 * Builds and caches BADCO models per (benchmark, core-count) pair,
 * with optional on-disk persistence so the one-off model-building
 * cost (the paper's "2 traces per benchmark" step, §VII-A) is paid
 * once across tools.
 */

#ifndef WSEL_SIM_MODEL_STORE_HH
#define WSEL_SIM_MODEL_STORE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "badco/badco_model.hh"
#include "cpu/core_config.hh"
#include "trace/benchmark_profile.hh"

namespace wsel
{

/**
 * Store of BADCO models for one core configuration and slice length.
 */
class BadcoModelStore
{
  public:
    /**
     * @param core_cfg The detailed-core configuration modelled.
     * @param target_uops Slice length in µops.
     * @param llc_hit_latency Perfect-uncore latency used when
     *        building (the target uncore's hit latency).
     * @param cache_dir Directory for on-disk persistence; empty
     *        keeps models in memory only.
     */
    BadcoModelStore(const CoreConfig &core_cfg,
                    std::uint64_t target_uops,
                    std::uint32_t llc_hit_latency,
                    std::string cache_dir = "");

    /** Get (building or loading if needed) a benchmark's model. */
    const BadcoModel &get(const BenchmarkProfile &profile);

    /**
     * Models for a whole suite, indexed like the suite.  With
     * jobs != 1 the missing models are built (or loaded from
     * disk) concurrently on an exec/ thread pool — model
     * building is per-benchmark pure, only the map insertion is
     * serialized — and the result is identical to a serial call.
     * The store itself is not thread-safe: call get/getSuite from
     * one thread at a time.
     */
    std::vector<const BadcoModel *> getSuite(
        const std::vector<BenchmarkProfile> &suite,
        std::size_t jobs = 1);

    /** Host seconds spent building models so far. */
    double buildSeconds() const { return buildSeconds_; }

    /** Number of models built (not loaded from disk). */
    std::size_t modelsBuilt() const { return built_; }

  private:
    std::string cachePath(const BenchmarkProfile &profile) const;

    /**
     * Load @p profile's model from the disk cache or build it,
     * reporting build cost via the out-parameters.  Does not touch
     * the in-memory map or the counters, so getSuite can run it
     * for several benchmarks concurrently.
     */
    BadcoModel loadOrBuild(const BenchmarkProfile &profile,
                           double &build_seconds, bool &built) const;

    CoreConfig coreCfg_;
    std::uint64_t targetUops_;
    std::uint32_t llcHitLatency_;
    std::string cacheDir_;
    std::map<std::string, BadcoModel> models_;
    double buildSeconds_ = 0.0;
    std::size_t built_ = 0;
};

/**
 * Shared results directory: $WSEL_CACHE_DIR when set (empty
 * disables persistence), else "./.wsel_cache".  The directory is
 * created on first use; failure to create it is WSEL_FATAL (so
 * misconfiguration surfaces immediately, not at the first open).
 */
std::string defaultCacheDir();

} // namespace wsel

#endif // WSEL_SIM_MODEL_STORE_HH
