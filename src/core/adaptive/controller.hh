/**
 * @file
 * Live sequential stopping for campaign-driving (docs/SAMPLING.md):
 * instead of fixing the sample size W up front (eq. 8) and asking
 * "how confident are we after W workloads?", the controller watches
 * the streamed d(w) statistics batch by batch and answers "can we
 * stop *now*?" — the Pac-Sim-style online decision the ROADMAP
 * names.
 *
 * After each batch the controller evaluates eq. 5 on the observed
 * sample: with cv estimated from the n workloads simulated so far,
 *
 *     Pr(D >= 0) = 1/2 * [1 + erf((1/cv) * sqrt(n/2))]
 *
 * and stops once the confidence in the *leading* design
 * (max(conf, 1 - conf)) crosses the target, or a workload budget /
 * the population itself is exhausted.  The decision is a pure
 * function of the fed batch statistics, which is what makes an
 * interrupted-and-resumed adaptive campaign replay to the identical
 * stopping point (tests/test_adaptive.cc).
 *
 * The deterministic batch *schedule* lives here too: position i of
 * the sequential draw maps to a population rank through an FNV-1a
 * hash of (fingerprint, seed, i), so the schedule needs no stored
 * permutation, any suffix can be regenerated from the campaign
 * identity alone, and per-cell seeds stay keyed by absolute rank
 * exactly as in fixed-size population campaigns.
 */

#ifndef WSEL_CORE_ADAPTIVE_CONTROLLER_HH
#define WSEL_CORE_ADAPTIVE_CONTROLLER_HH

#include <cstdint>
#include <string>

#include "stats/summary.hh"

namespace wsel
{

/** Why a sequential campaign stopped (or has not). */
enum class StopReason : std::uint8_t
{
    None = 0,            ///< keep simulating
    TargetReached,       ///< confidence crossed the target
    BudgetExhausted,     ///< workload budget spent
    PopulationExhausted, ///< observed as many draws as workloads
    WallClock,           ///< wall-clock budget spent (non-replayable)
};

const char *toString(StopReason r);

/** Tunables of the sequential stopping rule. */
struct SequentialConfig
{
    /**
     * Stop once the confidence in the leading design reaches this.
     * 0.977 = 1/2 (1 + erf(sqrt(2))): eq. 5 at x = sqrt(2), a
     * sample of W = 4 cv^2.  Eq. 8's W = 8 cv^2 (x = 2) gives
     * 1/2 (1 + erf(2)) ~ 0.9977 (docs/SAMPLING.md).
     */
    double targetConfidence = 0.977;

    /**
     * Never decide before this many workloads: a two-workload cv
     * estimate is noise, and an early lucky batch must not stop the
     * campaign (the sequential-testing peeking hazard).
     */
    std::uint64_t minWorkloads = 32;

    /**
     * Workload budget; 0 means bounded only by the population size
     * passed to the controller.
     */
    std::uint64_t maxWorkloads = 0;
};

/** The controller's verdict after a batch. */
struct SequentialDecision
{
    StopReason reason = StopReason::None;
    bool yWins = false;      ///< direction of the current leader
    double confidence = 0.5; ///< eq. 5 confidence in the leader
    double cv = 0.0;         ///< signed cv of observed d(w)
    std::uint64_t workloads = 0; ///< observed so far

    bool stop() const { return reason != StopReason::None; }
};

/**
 * Streamed eq. 5 stopping rule.  Feed one RunningStats per batch
 * (merged in batch order); read the decision after each feed.
 * Observing more batches after a stop is allowed and keeps the
 * first stop (replay of a finished artifact is idempotent).
 */
class SequentialController
{
  public:
    /**
     * @param cfg The stopping rule.
     * @param population_size Draw positions available; sampling is
     *        with replacement, so this bounds the *schedule*, not
     *        distinct workloads.
     */
    SequentialController(const SequentialConfig &cfg,
                         std::uint64_t population_size);

    /**
     * Merge @p batch into the observed statistics and re-evaluate
     * the stopping rule.  Returns the (possibly already stopped)
     * decision.
     */
    const SequentialDecision &observeBatch(const RunningStats &batch);

    /**
     * Record that the wall-clock budget expired; overrides a
     * continue decision but never an earlier stop.  Kept separate
     * from observeBatch so replay-from-artifact stays deterministic
     * (docs/SAMPLING.md).
     */
    const SequentialDecision &observeWallClockExpired();

    const SequentialDecision &decision() const { return decision_; }
    const RunningStats &observed() const { return observed_; }
    std::uint64_t batches() const { return batches_; }

    /** Effective workload cap (budget or population). */
    std::uint64_t budgetWorkloads() const;

  private:
    void evaluate();

    SequentialConfig cfg_;
    std::uint64_t populationSize_;
    RunningStats observed_;
    SequentialDecision decision_;
    std::uint64_t batches_ = 0;
};

/**
 * Deterministic sequential schedule: the population rank simulated
 * at draw position @p position.  Uniform over [0, population) with
 * replacement, keyed by campaign identity — no permutation is
 * stored, so any run (fresh, resumed, distributed) regenerates the
 * identical schedule.
 */
std::uint64_t adaptiveScheduleRank(std::uint64_t fingerprint,
                                   std::uint64_t seed,
                                   std::uint64_t position,
                                   std::uint64_t population);

/**
 * Candidate @p slot of the ranked-set draw at @p position: the
 * ranked-set schedule inspects setSize such candidates per
 * position, ranks them with the cheap model, and keeps the
 * (position mod setSize)-th order statistic.
 */
std::uint64_t adaptiveCandidateRank(std::uint64_t fingerprint,
                                    std::uint64_t seed,
                                    std::uint64_t position,
                                    std::uint64_t slot,
                                    std::uint64_t population);

} // namespace wsel

#endif // WSEL_CORE_ADAPTIVE_CONTROLLER_HH
