/**
 * @file
 * Escalation policy of the mixed-fidelity layer (docs/FIDELITY.md).
 *
 * An EscalationOracle composes per-core error bounds from an
 * ErrorProfile through the throughput metric — the same O(K)
 * composition path core/adaptive's ApproxRanker uses — into a
 * per-cell interval [dLo, dHi] around the BADCO d(w).  Every
 * metric's per-workload throughput is monotone increasing in each
 * core's IPC and perWorkloadDifference is monotone increasing in
 * t_Y and decreasing in t_X, so the extreme d values come from the
 * corner IPC vectors: dLo pairs X at its upper bound with Y at its
 * lower, dHi the reverse.
 *
 * A cell is *suspicious* when its interval straddles the decision
 * threshold (0 for the X-vs-Y sign question, or any caller-supplied
 * quantile boundary): BADCO's point estimate could be on the wrong
 * side of the decision.  selectEscalations turns per-row intervals
 * into the final escalation set, honouring a budget cap by keeping
 * the most ambiguous rows (smallest |d - threshold|) with a
 * deterministic rank tie-break, so the set is identical across job
 * counts and resumes.
 *
 * planEscalation is the one place a campaign's escalation set is
 * chosen: the in-process hybrid run (sim/hybrid.hh) and the serve
 * coordinator's detailed phase both call it, so the same sweep,
 * profile and knobs pick the same rows on every path.
 */

#ifndef WSEL_FIDELITY_ESCALATION_HH
#define WSEL_FIDELITY_ESCALATION_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/metrics/throughput.hh"
#include "core/workload/workload.hh"
#include "fidelity/error_profile.hh"
#include "fidelity/persist_fidelity.hh"
#include "stats/persist_v3.hh"

namespace wsel::fidelity
{

/** One cell's BADCO point estimate and model-error interval. */
struct CellInterval
{
    double d = 0.0;   ///< BADCO d(w)
    double dLo = 0.0; ///< lower bound given the error profile
    double dHi = 0.0; ///< upper bound given the error profile

    bool
    straddles(double threshold) const
    {
        return dLo <= threshold && threshold <= dHi;
    }
};

/**
 * Composes per-benchmark error bounds through the throughput
 * metric.  Not thread-safe (reuses internal scratch, like
 * ApproxRanker); give each worker its own instance.
 */
class EscalationOracle
{
  public:
    /**
     * @param m Throughput metric of the X-vs-Y question.
     * @param profile Calibrated error model (borrowed).
     * @param quantile One-sided error-bound quantile in (0, 1),
     *        e.g. 0.95 (ErrorProfile::errorBound checks it).
     * @param ref_ipc Per-benchmark reference IPCs for the speedup
     *        metrics.  Reference IPCs are treated as exact; their
     *        model error is folded into the per-cell bound via the
     *        calibration residuals (docs/FIDELITY.md).
     */
    EscalationOracle(ThroughputMetric m, const ErrorProfile &profile,
                     double quantile, std::vector<double> ref_ipc);

    /**
     * Interval for one workload row given its sorted benchmark
     * multiset and the BADCO per-core IPCs under policy X and Y.
     */
    CellInterval interval(std::span<const std::uint32_t> benches,
                          std::span<const double> ipc_x,
                          std::span<const double> ipc_y) const;

  private:
    ThroughputMetric m_;
    const ErrorProfile *profile_;
    double quantile_;
    std::vector<double> refIpc_;
    mutable std::vector<double> lo_;
    mutable std::vector<double> hi_;
    mutable std::vector<double> refs_;
};

/**
 * Decide the escalation set: rows whose interval straddles
 * @p threshold, capped at ceil(budget_fraction * rows) by keeping
 * the most ambiguous rows first (smallest |d - threshold|, ties to
 * the lower row index).  Returns one flag byte per row.
 */
std::vector<std::uint8_t> selectEscalations(
    const std::vector<CellInterval> &cells, double threshold,
    double budget_fraction);

/** WSEL_FATAL unless @p quantile is in (0, 1), the budget in [0, 1]. */
void checkEscalationKnobs(double quantile, double budget_fraction);

/** WSEL_FATAL unless @p profile was calibrated for @p suite. */
void checkProfileSuite(const ErrorProfile &profile,
                       const std::vector<BenchmarkProfile> &suite);

/** What shapes an escalation set besides the sweep and profile. */
struct EscalationKnobs
{
    ThroughputMetric metric{};
    double quantile = 0.0;
    double budgetFraction = 0.0;
    double threshold = 0.0;
    std::uint64_t seed = 0;
    std::uint64_t detailedFingerprint = 0; ///< of the re-simulation
};

/** A committed escalation set and the intervals behind it. */
struct EscalationPlan
{
    EscalationRecord record;
    std::vector<CellInterval> cells; ///< one per sweep row
};

/**
 * Choose and commit the escalation set of the committed BADCO sweep
 * @p m in @p sweep_dir (policies[0] is X, policies[1] is Y).  Checks
 * the knobs and the profile's suite, computes every row's interval
 * (one shard per task on @p jobs threads, 0 = default), and with
 * @p resume keeps the fidelity-bitmap.bin in @p record_dir whose
 * identity fields all match, so a resumed campaign escalates the
 * same rows after the profile drifted.  Otherwise selectEscalations
 * picks the set, which replaces a stale or corrupt record.
 */
EscalationPlan planEscalation(const persist::V3Manifest &m,
                              const std::string &sweep_dir,
                              const WorkloadPopulation &pop,
                              const std::vector<BenchmarkProfile> &suite,
                              const ErrorProfile &profile,
                              const EscalationKnobs &knobs,
                              const std::string &record_dir,
                              bool resume, std::size_t jobs);

} // namespace wsel::fidelity

#endif // WSEL_FIDELITY_ESCALATION_HH
