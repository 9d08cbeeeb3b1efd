/**
 * @file
 * Reconstruction of a full campaign context from a wire-level
 * CampaignSpec — the piece that lets a worker *process*, started
 * with nothing but a socket path, produce shard bytes identical to
 * the coordinator's idea of the campaign.
 *
 * A spec carries only names and numbers (benchmark names, policy
 * names, geometry).  Both coordinator and worker resolve the names
 * against the built-in suite, rebuild the BADCO models (through the
 * shared on-disk model cache, so this is cheap after the first
 * process), and recompute campaignFingerprint; a worker then
 * cross-checks its fingerprint against the one in the lease and
 * refuses to simulate on mismatch — version drift between a daemon
 * and its workers must fail loudly, not corrupt the store.
 */

#ifndef WSEL_SERVE_CONTEXT_HH
#define WSEL_SERVE_CONTEXT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/replacement.hh"
#include "core/workload/workload.hh"
#include "mem/uncore_config.hh"
#include "serve/protocol.hh"
#include "sim/model_store.hh"
#include "stats/persist_v3.hh"
#include "trace/benchmark_profile.hh"

namespace wsel::serve
{

/**
 * Everything needed to simulate shards of one campaign.  Built
 * once per campaign per process and reused across leases; owns the
 * model store the `models` pointers live in.
 */
class CampaignContext
{
  public:
    /**
     * Resolve and validate @p spec (WSEL_FATAL on unknown
     * benchmark/policy names, bad rank range, zero geometry, bad
     * escalation knobs) and,
     * for a BADCO campaign, build the models with @p jobs threads
     * through the cache at @p cache_dir.
     */
    CampaignContext(const CampaignSpec &spec,
                    const std::string &cache_dir,
                    std::size_t jobs = 1);

    CampaignContext(const CampaignContext &) = delete;
    CampaignContext &operator=(const CampaignContext &) = delete;

    /**
     * The campaign's manifest (simSeconds zero).  refIpc stays
     * empty until computeReferenceIpcs(): shards do not carry the
     * references, so only the process that commits the manifest
     * computes them.
     */
    const persist::V3Manifest &manifest() const { return m_; }

    /**
     * Fill manifest().refIpc with the single-core reference IPCs
     * (BADCO or detailed, by fidelity), spread over @p jobs
     * threads.  A no-op once filled.
     */
    void computeReferenceIpcs(std::size_t jobs);

    const WorkloadPopulation &population() const { return pop_; }
    const std::vector<UncoreConfig> &uncores() const
    {
        return ucfgs_;
    }
    /** BADCO models; empty for a detailed-fidelity campaign. */
    const std::vector<const BadcoModel *> &models() const
    {
        return models_;
    }
    const std::vector<BenchmarkProfile> &suite() const
    {
        return suite_;
    }
    const CoreConfig &coreConfig() const { return coreCfg_; }
    std::uint64_t seed() const { return seed_; }

    /** CampaignSpec::fidelity: 0 BADCO, 1 detailed. */
    std::uint32_t fidelity() const { return fidelity_; }

    /** campaignGeometryHash of the spec (store addressing). */
    std::uint64_t geometryHash() const { return geomHash_; }

  private:
    std::unique_ptr<BadcoModelStore> store_;
    std::vector<BenchmarkProfile> suite_;
    std::vector<const BadcoModel *> models_;
    std::vector<UncoreConfig> ucfgs_;
    WorkloadPopulation pop_;
    persist::V3Manifest m_;
    CoreConfig coreCfg_{};
    std::uint64_t seed_ = 1;
    std::uint64_t geomHash_ = 0;
    std::uint32_t fidelity_ = 0;
};

} // namespace wsel::serve

#endif // WSEL_SERVE_CONTEXT_HH
