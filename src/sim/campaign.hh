/**
 * @file
 * Simulation campaigns: run a workload list under several uncore
 * policies with one simulator, collect the full IPC matrix, and
 * persist it, so the expensive simulation step is decoupled from
 * the sampling analyses (the paper's workflow: simulate the large
 * sample once with BADCO, then study sampling methods on the
 * resulting numbers).
 *
 * Campaigns are durable, validated artifacts (docs/ROBUSTNESS.md):
 * every campaign, sampled or population-scale, is a sharded binary
 * `campaign_v3` directory (src/stats/persist_v3.hh) of sealed files
 * that carry the configuration fingerprint and a checksum, the
 * manifest is written last as the commit point, and a corrupt or
 * stale cache directory is quarantined and regenerated instead of
 * aborting the run.
 *
 * The runners here are front ends over the population engine's
 * shard loop (sim/population.hh): shard rows are positions in the
 * campaign's WorkloadSet, BADCO cells run on the batch runner and
 * detailed cells on simulateDetailedPopulationShard, and a long run
 * checkpoints each finished shard as a sealed campaign_v3 shard so
 * it resumes after a crash.  Each cell is seeded independently by
 * campaignCellSeed from its position in the set, so the IPC matrix
 * is bitwise identical at any CampaignOptions::jobs
 * (docs/PARALLELISM.md).
 */

#ifndef WSEL_SIM_CAMPAIGN_HH
#define WSEL_SIM_CAMPAIGN_HH

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/replacement.hh"
#include "core/metrics/throughput.hh"
#include "obs/metrics.hh"
#include "core/workload/workload.hh"
#include "cpu/core_config.hh"
#include "sim/model_store.hh"
#include "sim/multicore.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel
{

/** How strictly Campaign::load treats a damaged file. */
enum class LoadMode
{
    /**
     * User-supplied path: any problem (missing, truncated, bad
     * checksum, malformed field) is WSEL_FATAL.
     */
    Strict,

    /**
     * Cache-managed file: a damaged file is quarantined
     * (`*.corrupt`), a warning is emitted, and persist::CacheInvalid
     * is thrown so the caller regenerates the campaign.
     */
    Cached,
};

/**
 * The campaign IPC matrix: one contiguous policy-major
 * [P x N x K] buffer of doubles (policy, then workload, then
 * core), replacing the former vector<vector<vector<double>>> so a
 * 4.3M-workload population costs one allocation and cells are
 * cache-line friendly.  The old triple-indexing syntax keeps
 * working through lightweight read proxies:
 * `ipc[p][w][k]`, range-for over policies and cells, and
 * element-wise equality all behave as before.
 */
class IpcMatrix
{
  public:
    /** Read proxy for one (policy, workload) cell: K doubles. */
    class CellView
    {
      public:
        CellView() = default;
        CellView(const double *d, std::size_t k) : d_(d), k_(k) {}

        std::size_t size() const { return k_; }
        bool empty() const { return k_ == 0; }
        double operator[](std::size_t i) const { return d_[i]; }
        const double *begin() const { return d_; }
        const double *end() const { return d_ + k_; }
        const double *data() const { return d_; }

        operator std::span<const double>() const
        {
            return {d_, k_};
        }

        friend bool
        operator==(const CellView &a, const CellView &b)
        {
            return std::equal(a.begin(), a.end(), b.begin(),
                              b.end());
        }

        friend bool
        operator==(const CellView &a, const std::vector<double> &b)
        {
            return std::equal(a.begin(), a.end(), b.begin(),
                              b.end());
        }

      private:
        const double *d_ = nullptr;
        std::size_t k_ = 0;
    };

    /** Read proxy for one policy: N cells of K doubles. */
    class PolicyView
    {
      public:
        PolicyView(const double *base, std::size_t n, std::size_t k)
            : base_(base), n_(n), k_(k)
        {
        }

        std::size_t size() const { return n_; }

        CellView operator[](std::size_t w) const
        {
            return {base_ + w * k_, k_};
        }

        class iterator
        {
          public:
            using value_type = CellView;
            using difference_type = std::ptrdiff_t;

            iterator(const PolicyView *v, std::size_t w)
                : v_(v), w_(w)
            {
            }

            CellView operator*() const { return (*v_)[w_]; }
            iterator &operator++()
            {
                ++w_;
                return *this;
            }
            bool operator==(const iterator &o) const
            {
                return w_ == o.w_;
            }

          private:
            const PolicyView *v_;
            std::size_t w_;
        };

        iterator begin() const { return {this, 0}; }
        iterator end() const { return {this, n_}; }

        friend bool
        operator==(const PolicyView &a, const PolicyView &b)
        {
            return a.n_ == b.n_ && a.k_ == b.k_ &&
                   std::equal(a.base_, a.base_ + a.n_ * a.k_,
                              b.base_);
        }

      private:
        const double *base_;
        std::size_t n_, k_;
    };

    IpcMatrix() = default;

    /** Allocate (zero-filled) for @p policies x @p workloads x
     * @p cores. */
    void
    reshape(std::size_t policies, std::size_t workloads,
            std::uint32_t cores)
    {
        np_ = policies;
        nw_ = workloads;
        k_ = cores;
        data_.assign(np_ * nw_ * k_, 0.0);
    }

    std::size_t policies() const { return np_; }
    std::size_t workloadCount() const { return nw_; }
    std::uint32_t coresPerCell() const
    {
        return static_cast<std::uint32_t>(k_);
    }

    /** Number of policies (mirrors the old outer vector). */
    std::size_t size() const { return np_; }
    bool empty() const { return np_ == 0; }

    PolicyView operator[](std::size_t p) const
    {
        return {data_.data() + p * nw_ * k_, nw_, k_};
    }

    std::span<const double>
    cell(std::size_t p, std::size_t w) const
    {
        return {data_.data() + (p * nw_ + w) * k_, k_};
    }

    std::span<double>
    cellMut(std::size_t p, std::size_t w)
    {
        return {data_.data() + (p * nw_ + w) * k_, k_};
    }

    void
    setCell(std::size_t p, std::size_t w,
            std::span<const double> v)
    {
        if (v.size() != k_)
            WSEL_FATAL("ipc cell has " << v.size()
                                       << " values, expected "
                                       << k_);
        std::copy(v.begin(), v.end(),
                  data_.data() + (p * nw_ + w) * k_);
    }

    /**
     * Scatter row-major (workload, policy, core) rows, the
     * campaign_v3 shard layout, into this policy-major matrix,
     * starting at workload @p first.
     */
    void
    scatterRows(std::size_t first, std::span<const double> rows)
    {
        const std::size_t row = np_ * k_;
        if (row == 0 || rows.size() % row != 0 ||
            first + rows.size() / row > nw_)
            WSEL_FATAL("cannot scatter " << rows.size()
                       << " values as rows from workload " << first
                       << " into a " << np_ << "x" << nw_ << "x"
                       << k_ << " matrix");
        const double *src = rows.data();
        for (std::size_t w = first; src != rows.data() + rows.size();
             ++w) {
            for (std::size_t p = 0; p < np_; ++p, src += k_)
                std::copy(src, src + k_,
                          data_.data() + (p * nw_ + w) * k_);
        }
    }

    const std::vector<double> &data() const { return data_; }

    class iterator
    {
      public:
        using value_type = PolicyView;
        using difference_type = std::ptrdiff_t;

        iterator(const IpcMatrix *m, std::size_t p) : m_(m), p_(p)
        {
        }

        PolicyView operator*() const { return (*m_)[p_]; }
        iterator &operator++()
        {
            ++p_;
            return *this;
        }
        bool operator==(const iterator &o) const
        {
            return p_ == o.p_;
        }

      private:
        const IpcMatrix *m_;
        std::size_t p_;
    };

    iterator begin() const { return {this, 0}; }
    iterator end() const { return {this, np_}; }

    bool
    operator==(const IpcMatrix &o) const
    {
        return np_ == o.np_ && nw_ == o.nw_ && k_ == o.k_ &&
               data_ == o.data_;
    }

  private:
    std::size_t np_ = 0;
    std::size_t nw_ = 0;
    std::size_t k_ = 0;
    std::vector<double> data_;
};

/** The full result of simulating workloads x policies. */
struct Campaign
{
    std::string simulator; ///< "badco" or "detailed"
    std::uint32_t cores = 0;
    std::uint64_t targetUops = 0;
    std::vector<PolicyKind> policies;
    std::vector<std::string> benchmarks; ///< suite names
    std::vector<double> refIpc; ///< single-thread IPC per benchmark

    /**
     * The workload list: an explicit list for sampled campaigns, a
     * rank range over the population shape for (sub)population
     * campaigns (O(1) memory regardless of N).
     */
    WorkloadSet workloads;

    /** ipc[policy][workload][core], stored contiguously. */
    IpcMatrix ipc;

    /**
     * Host wall seconds this run spent simulating and writing
     * shards (resumed shards add none).
     */
    double simSeconds = 0.0;

    /** Total µops simulated (for MIPS reporting). */
    std::uint64_t instructions = 0;

    /**
     * Configuration fingerprint (campaignFingerprint) persisted in
     * the manifest and every shard so caches detect config drift
     * the cache key missed.
     */
    std::uint64_t fingerprint = 0;

    /** Index of @p kind in policies; fatal when absent. */
    std::size_t policyIndex(PolicyKind kind) const;

    /**
     * Per-workload throughput t(w) (eq. 1) for one policy under one
     * metric, aligned with the workloads list.
     */
    std::vector<double> perWorkloadThroughputs(
        std::size_t policy_idx, ThroughputMetric m) const;

    /**
     * Caller-buffer variant: write t(w) into @p out (size
     * workloads.size()) streaming the workload set, with no
     * per-call triple indirection or allocation.
     */
    void perWorkloadThroughputsInto(std::size_t policy_idx,
                                    ThroughputMetric m,
                                    std::span<double> out) const;

    /** Simulation speed in MIPS. */
    double mips() const;

    /**
     * Persist as a campaign_v3 directory at @p path: shards cut
     * from the IPC matrix, keyed on the fingerprint, then the
     * manifest as the commit point.  A workload list that is not a
     * population rank range is stored as the manifest's rank list.
     * A campaign directory already at @p path is replaced; a file
     * or any other directory there is fatal.
     */
    void save(const std::string &path) const;

    /**
     * Load a campaign_v3 directory; a campaign_v2 or v1 text file
     * is refused like any other damage.
     * @see LoadMode for failure semantics.
     */
    static Campaign load(const std::string &path,
                         LoadMode mode = LoadMode::Strict);
};

/**
 * Fingerprint of everything that determines a campaign's numbers:
 * simulator kind, core count, slice length, policy list, and the
 * suite (benchmark names and parameter hashes).  Stored in v3
 * manifests and shards; compared by cachedCampaign so a stale
 * cache is detected even when the filename key did not change
 * (e.g. a edited benchmark profile or policy list).
 */
std::uint64_t campaignFingerprint(
    const std::string &simulator, std::uint32_t cores,
    std::uint64_t target_uops,
    const std::vector<PolicyKind> &policies,
    const std::vector<BenchmarkProfile> &suite);

/**
 * Seed for one (policy, workload) cell: derived from the campaign
 * fingerprint, the campaign base seed and the cell coordinates, so
 * every cell is an independent deterministic stream whose value
 * does not depend on which thread simulates it or in which order.
 * This is the determinism contract behind CampaignOptions::jobs
 * (docs/PARALLELISM.md): an N-job run is bitwise identical to a
 * 1-job run.  Never returns 0.
 */
std::uint64_t campaignCellSeed(std::uint64_t fingerprint,
                               std::uint64_t base_seed,
                               std::size_t policy,
                               std::size_t workload);

/** Options shared by the campaign runners. */
struct CampaignOptions
{
    std::uint64_t seed = 1;
    bool verbose = false; ///< one progress line per shard on stderr

    /**
     * Threads simulating each shard's cells.  1 (the default) runs
     * them on the calling thread; 0 asks for exec::defaultJobs()
     * ($WSEL_JOBS, else the hardware concurrency).  The IPC matrix
     * is bitwise independent of this setting (docs/PARALLELISM.md).
     */
    std::size_t jobs = 1;

    /**
     * Cells (workloads x policies) per shard, the unit of durable
     * checkpoint writes: the row count is shardCells / policies,
     * floored, min 1, as in PopulationOptions.  A kill loses at
     * most the shard in flight.  It does not depend on jobs, so a
     * checkpoint written at one job count resumes at any other.
     */
    std::size_t shardCells = 256;

    /**
     * When non-empty, a directory of sealed campaign_v3 shards
     * (src/stats/persist_v3.hh): each finished shard is written
     * there, and the intact shards a killed run left are reused, so
     * the campaign resumes at its first missing shard.  Shards are
     * keyed on the configuration fingerprint, the base seed and the
     * workload list; one from any other campaign is quarantined,
     * never replayed.  The caller removes the directory once the
     * final artifact is saved.
     */
    std::string checkpointDir;
};

/**
 * Run a BADCO campaign: simulate every workload under every policy
 * with the behavioural simulator.  @p workloads accepts a
 * std::vector<Workload> (implicitly) or any WorkloadSet, including
 * a population rank range that is never materialized.
 */
Campaign runBadcoCampaign(const WorkloadSet &workloads,
                          const std::vector<PolicyKind> &policies,
                          std::uint32_t cores,
                          std::uint64_t target_uops,
                          BadcoModelStore &store,
                          const std::vector<BenchmarkProfile> &suite,
                          const CampaignOptions &opts = {});

/**
 * Run a detailed campaign with the cycle-level simulator.
 */
Campaign runDetailedCampaign(
    const WorkloadSet &workloads,
    const std::vector<PolicyKind> &policies, std::uint32_t cores,
    std::uint64_t target_uops, const CoreConfig &core_cfg,
    const std::vector<BenchmarkProfile> &suite,
    const CampaignOptions &opts = {});

/**
 * Load the campaign cached under @p cache_key in @p cache_dir if
 * present; otherwise invoke @p produce and persist the result as
 * the campaign_v3 directory `<cache_dir>/campaign_v3_<cache_key>`.
 * An empty @p cache_dir always produces.
 *
 * Robustness semantics:
 *  - An advisory lock (`<dir>.lock`) serializes concurrent
 *    processes on the same key; the loser of the race blocks and
 *    then loads the winner's result instead of re-simulating.
 *  - A cached directory with no manifest (a save that was killed),
 *    a damaged shard or manifest, a file in its place, or (when
 *    @p expected_fingerprint is nonzero) a fingerprint mismatch is
 *    quarantined to `*.corrupt` with a warning and the campaign is
 *    regenerated.
 *  - @p produce may accept a checkpoint path argument
 *    (`<dir>.partial`, CampaignOptions::checkpointDir); the runners
 *    checkpoint shards into it and resume from it, so a killed
 *    process loses at most one shard of work.  The checkpoint is
 *    removed after the final artifact is saved.
 */
template <typename ProduceFn>
Campaign
cachedCampaign(const std::string &cache_dir,
               const std::string &cache_key,
               std::uint64_t expected_fingerprint,
               ProduceFn &&produce)
{
    auto invoke = [&](const std::string &checkpoint) -> Campaign {
        if constexpr (std::is_invocable_v<ProduceFn &,
                                          const std::string &>) {
            return produce(checkpoint);
        } else {
            (void)checkpoint;
            return produce();
        }
    };
    if (cache_dir.empty())
        return invoke("");
    persist::ensureDirTree(cache_dir);
    const std::string path = cache_dir + "/campaign_v3_" + cache_key;
    persist::FileLock lock(path + ".lock");
    if (std::filesystem::exists(path)) {
        try {
            Campaign c = Campaign::load(path, LoadMode::Cached);
            if (expected_fingerprint == 0 ||
                c.fingerprint == expected_fingerprint) {
                obs::counter("persist.cache_hit").inc();
                return c;
            }
            persist::quarantineArtifact(
                path, "stale campaign cache",
                "configuration fingerprint changed", "re-simulating");
        } catch (const persist::CacheInvalid &) {
            // load() already quarantined the directory and warned.
        }
    }
    obs::counter("persist.cache_miss").inc();
    Campaign c = invoke(path + ".partial");
    c.save(path);
    std::error_code ec;
    std::filesystem::remove_all(path + ".partial", ec);
    return c;
}

} // namespace wsel

#endif // WSEL_SIM_CAMPAIGN_HH
