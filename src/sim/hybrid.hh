/**
 * @file
 * Error-bounded mixed-fidelity campaigns (docs/FIDELITY.md).
 *
 * runHybridCampaign answers one X-vs-Y question in four phases:
 *
 *   1. BADCO sweep — the streamed campaign_v3 population engine
 *      (sim/population.hh) over the two policies.
 *   2. Escalation — fidelity::planEscalation, shared with the
 *      serve coordinator, composes the ErrorProfile through the
 *      metric into per-row d(w) intervals; rows whose interval
 *      straddles the decision threshold are flagged, capped by a
 *      budget knob, and the set is committed to a fidelity-bitmap
 *      sidecar BEFORE any detailed cell runs (so a resumed run
 *      replays the same set even after the profile drifted).
 *   3. Detailed re-simulation — flagged rows re-run on the
 *      detailed simulator under both policies, sharing the trace
 *      store, the exec pool and campaignCellSeed with
 *      runDetailedCampaign, batched into resumable checksummed
 *      files.  Kill/resume is bitwise identical to an
 *      uninterrupted run at any --jobs (the `fidelity.escalate`
 *      kill point injects faults per detailed cell).
 *   4. Splice + report — detailed d(w) values replace BADCO's for
 *      escalated rows and hybrid.bin (the commit point) records a
 *      confidence statement separating sampling error (eq. 5) from
 *      model error.  Afterwards the escalated cells' residuals
 *      update the profile online, guarded against double counting
 *      across resumes.
 */

#ifndef WSEL_SIM_HYBRID_HH
#define WSEL_SIM_HYBRID_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core_config.hh"
#include "fidelity/error_profile.hh"
#include "fidelity/persist_fidelity.hh"
#include "sim/model_store.hh"
#include "sim/population.hh"
#include "stats/persist_v3.hh"

namespace wsel
{

struct HybridOptions
{
    std::uint64_t seed = 1;
    std::size_t jobs = 1;          ///< see PopulationOptions::jobs
    std::size_t shardCells = 64 * 1024;
    std::uint64_t firstRank = 0;
    std::uint64_t lastRank = 0;    ///< 0 = whole population
    bool resume = true;
    bool verbose = false;

    double quantile = 0.95;        ///< error-bound quantile
    double budgetFraction = 0.25;  ///< max escalated row fraction
    double threshold = 0.0;        ///< decision boundary on d(w)
    std::uint64_t batchRows = 64;  ///< detailed rows per batch file

    CoreConfig coreCfg{};          ///< detailed-core parameters

    /** BADCO-phase batched-engine cells per batch (sim/batch.hh):
     *  0 resolves WSEL_BATCH_CELLS (default 32), 1 = serial. */
    std::uint32_t batchCells = 0;
};

struct HybridResult
{
    std::string dir;
    persist::V3Manifest manifest;          ///< BADCO sweep
    fidelity::EscalationRecord escalation; ///< the escalation set
    fidelity::HybridReportRecord report;
    PopulationResult badco;                ///< phase-1 result
    std::uint64_t detailedCellsSimulated = 0;
    std::uint64_t detailedCellsResumed = 0;
    bool profileUpdated = false; ///< residuals applied this run
};

/**
 * Run a mixed-fidelity X-vs-Y campaign into @p out_dir.
 *
 * @param profile Calibrated error model for @p suite; updated in
 *        place with the escalated cells' residuals (persist it via
 *        fidelity::writeErrorProfile to keep the learning).  An
 *        empty profile escalates everything up to the budget.
 */
HybridResult runHybridCampaign(
    const WorkloadPopulation &pop, PolicyKind x, PolicyKind y,
    ThroughputMetric metric, std::uint64_t target_uops,
    BadcoModelStore &store,
    const std::vector<BenchmarkProfile> &suite,
    fidelity::ErrorProfile &profile, const std::string &out_dir,
    const HybridOptions &opts = {});

} // namespace wsel

#endif // WSEL_SIM_HYBRID_HH
