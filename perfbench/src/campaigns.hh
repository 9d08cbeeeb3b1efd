/**
 * @file
 * The benchmark's three workloads: their shapes (derived from the
 * workload seed), the timed set-up, one untraced campaign through
 * the library's top-level call, and the output digest that checks
 * it.
 *
 *   population-4c   runBadcoPopulationCampaign, 5 policies, the 10
 *                   policy pairs, default shard/batch/wave, 4 jobs
 *   hybrid-4c       runHybridCampaign, DIP vs DRRIP, 25 % budget,
 *                   4 jobs, 2-row detailed batches, from a frozen
 *                   pre-calibrated profile
 *   distributed-4c  the population shape through an in-process
 *                   serve::Coordinator and 3 wsel_worker processes
 *                   with small shards
 */

#ifndef PERFBENCH_CAMPAIGNS_HH
#define PERFBENCH_CAMPAIGNS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "cache/replacement.hh"
#include "core/workload/workload.hh"
#include "fidelity/error_profile.hh"
#include "serve/coordinator.hh"
#include "sim/hybrid.hh"
#include "sim/model_store.hh"
#include "sim/population.hh"

namespace perfbench
{

enum class Kind { Population, Hybrid, Distributed };

/** Everything that fixes one workload's inputs. */
struct Shape
{
    Kind kind = Kind::Population;
    std::string name;
    std::uint32_t cores = 4;
    std::uint64_t uops = 0;
    std::uint64_t baseSeed = 0; ///< campaign base seed
    std::uint64_t firstRank = 0;
    std::uint64_t lastRank = 0;
    std::vector<wsel::PolicyKind> policies;
    /** Threads (population, hybrid) or worker processes. */
    std::size_t jobs = 4;
    std::size_t shardCells = 64 * 1024;
    double budget = 0.25; ///< hybrid escalation budget
    /**
     * The reference configuration: the same campaign with the
     * unbatched cell engine, in-process and on one thread (hybrid
     * keeps its jobs for the detailed batches; distributed runs the
     * population engine at the distributed shard geometry).  Its
     * artifacts must be byte-identical to the measured runs'.
     */
    bool serial = false;

    std::uint64_t rows() const { return lastRank - firstRank; }
};

/** Shape of @p workload for @p seed; throws on an unknown name. */
Shape makeShape(const std::string &workload, std::uint64_t seed,
                bool smoke, bool serial = false);

/** The 4-core population over the 22-benchmark suite. */
const wsel::WorkloadPopulation &populationOf(const Shape &s);

/** runHybridCampaign's options for a hybrid shape. */
wsel::HybridOptions hybridOptions(const Shape &s);

/** The policy pairs whose d(w) statistics a campaign folds. */
std::vector<wsel::PopulationPairSpec> pairsOf(const Shape &s);

/** Models (and, for hybrid, the frozen profile) of one run. */
struct Setup
{
    std::unique_ptr<wsel::BadcoModelStore> store;
    std::vector<const wsel::BadcoModel *> models;
    wsel::fidelity::ErrorProfile profile;
    std::string cacheDir;      ///< where the models were persisted
    double seconds = 0.0;      ///< the whole set-up
    double modelSeconds = 0.0; ///< getSuite from the empty cache
};

/**
 * Obtain the suite's models from the empty cache dir @p cache_dir
 * and, for hybrid, load the frozen profile at @p profile_path.
 */
Setup setUp(const Shape &s, const std::string &cache_dir,
             const std::string &profile_path);

/** Calibrate the frozen hybrid error profile into @p path. */
void calibrateProfile(const Shape &s, const std::string &cache_dir,
                      const std::string &path);

/** Outcome of one untraced campaign. */
struct CampaignRun
{
    double wall = 0.0; ///< first campaign call to committed artifact
    double cpu = 0.0;  ///< user+sys of this process and its children
    std::uint64_t cells = 0; ///< BADCO plus detailed cells committed
    std::uint64_t shards = 0;
    std::uint64_t escalatedRows = 0;
    std::uint64_t resumed = 0;     ///< must stay 0
    std::uint64_t dedupHits = 0;   ///< must stay 0
    std::uint64_t quarantined = 0; ///< must stay 0
    std::string artifactDir;
    /** Per-pair (1/cv, mean d) as the campaign reported them. */
    std::vector<double> pairStats;
};

/** The serve::CampaignSpec of a distributed shape. */
wsel::serve::CampaignSpec campaignSpec(const Shape &s);

/**
 * An in-process coordinator loop plus the shape's wsel_worker
 * processes, for one client campaign.  finish() waits for the idle
 * coordinator to shut the workers down; without it (an exception
 * unwinding) the destructor stops the coordinator.  Either way every
 * worker is reaped and the loop joined.
 */
class ServeSession
{
  public:
    /** @p socket is relative to the cwd, keeping it short. */
    ServeSession(const Shape &s, const std::string &socket,
                 const std::string &store_root,
                 const std::string &cache_dir);
    ~ServeSession();

    ServeSession(const ServeSession &) = delete;
    ServeSession &operator=(const ServeSession &) = delete;

    const std::string &socket() const { return socket_; }

    /** Call after the client disconnects; true if all exited 0. */
    bool finish();

  private:
    void stop();

    std::string socket_;
    wsel::serve::Coordinator coordinator_;
    std::vector<pid_t> workers_;
    std::thread loop_; ///< runs coordinator_; declared after it
    bool finished_ = false;
};

/** CPU seconds (user + sys) of this process and reaped children. */
double cpuSeconds();

/** Peak RSS in MiB of this process or its largest reaped child. */
double peakRssMib();

/**
 * Run the workload's campaign once, writing its artifacts under the
 * fresh dir @p dir.
 */
CampaignRun runCampaign(const Shape &s, Setup &setup,
                        const std::string &dir);

/** Empty per-pair accumulators with the campaign's default shape. */
std::vector<wsel::PopulationPairSummary> makeAccumulators(
    const Shape &s);

/**
 * Add one shard's d(w) values to @p acc, row by row in rank order,
 * exactly as runBadcoPopulationCampaign folds them.
 */
void foldShard(const wsel::persist::V3Manifest &m,
               const wsel::WorkloadPopulation &pop,
               std::uint64_t shard, const std::vector<double> &payload,
               std::vector<wsel::PopulationPairSummary> &acc);

/** (1/cv, mean d) of every pair, in pair order. */
std::vector<double> pairStatsOf(
    const std::vector<wsel::PopulationPairSummary> &acc);

/**
 * The campaign's d(w) statistics recomputed from the committed
 * shards in @p dir: per-shard partials merged in shard order, as the
 * population engine merges them.
 */
std::vector<double> foldShards(const Shape &s, const std::string &dir);

/**
 * FNV-1a over the committed artifact bytes (every shard, and for
 * hybrid the escalation bitmap, detailed batches and report) plus
 * @p pair_stats; the manifest is left out because it records wall
 * time.  Returned as 16 hex digits.
 */
std::string digest(const std::string &artifact_dir,
                   const std::vector<double> &pair_stats);

} // namespace perfbench

#endif // PERFBENCH_CAMPAIGNS_HH
