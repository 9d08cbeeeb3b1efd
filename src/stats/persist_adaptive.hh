/**
 * @file
 * On-disk format of sequential (adaptive) campaigns
 * (docs/SAMPLING.md).  An adaptive artifact is a directory:
 *
 *     <dir>/adaptive.bin        written last (the commit point):
 *                               the stopping decision + trajectory
 *     <dir>/batch-000000.bin    one file per simulated batch
 *     <dir>/batch-000001.bin
 *     ...
 *
 * A batch file carries the population ranks its schedule positions
 * resolved to and the d(w) value of each — everything a resumed
 * run needs to replay the controller without re-simulating.  Both
 * kinds are sealed files (persist::Writer in stats/persist.hh
 * describes the frame).  Batch files contain no timing and no
 * job-count dependence, so a resumed run's artifact is bitwise
 * identical to an uninterrupted one (tests/test_adaptive.cc).
 *
 * Unlike campaign_v3's manifest, adaptive.bin describes a
 * *stopped* campaign: which batch the stopping rule fired after,
 * why, and the confidence trajectory that led there.  A directory
 * with batch files but no adaptive.bin is an interrupted run; the
 * runner resumes it batch by batch.
 */

#ifndef WSEL_STATS_PERSIST_ADAPTIVE_HH
#define WSEL_STATS_PERSIST_ADAPTIVE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace wsel::persist
{

inline constexpr std::uint32_t kAdaptiveVersion = 1;

/** One simulated batch: schedule positions -> (rank, d(w)). */
struct AdaptiveBatch
{
    std::uint64_t fingerprint = 0; ///< campaignFingerprint()
    std::uint64_t index = 0;       ///< batch number, from 0
    std::uint64_t firstPosition = 0; ///< first schedule position
    std::vector<std::uint64_t> ranks; ///< population rank per row
    std::vector<double> d;            ///< d(w) per row
};

/** The stopping decision (adaptive.bin, the commit point). */
struct AdaptiveDecisionRecord
{
    std::uint64_t fingerprint = 0;
    std::uint8_t reason = 0; ///< StopReason
    std::uint8_t yWins = 0;
    std::string method;      ///< "random" / "ranked-set"
    std::uint64_t batches = 0;
    std::uint64_t workloads = 0; ///< simulated draw positions
    double confidence = 0.0;     ///< eq. 5 at the stop
    double cv = 0.0;             ///< signed cv at the stop
    double target = 0.0;         ///< configured target confidence
    std::vector<double> trajectory; ///< confidence after each batch
};

std::string adaptiveBatchName(std::uint64_t index);
std::string adaptiveBatchPath(const std::string &dir,
                              std::uint64_t index);
std::string adaptiveDecisionPath(const std::string &dir);

/** Atomically write one batch file. */
void writeAdaptiveBatch(const std::string &dir,
                        const AdaptiveBatch &b);

/**
 * Read + validate batch @p index; throws CacheInvalid when
 * missing, truncated, checksum-damaged or from another campaign.
 */
AdaptiveBatch readAdaptiveBatch(const std::string &dir,
                                std::uint64_t fingerprint,
                                std::uint64_t index);

/** Atomically write the decision (call after all batches). */
void writeAdaptiveDecision(const std::string &dir,
                           const AdaptiveDecisionRecord &d);

/** True when @p dir holds a committed adaptive.bin. */
bool hasAdaptiveDecision(const std::string &dir);

/** Read + validate the decision; throws CacheInvalid on damage. */
AdaptiveDecisionRecord readAdaptiveDecision(const std::string &dir);

} // namespace wsel::persist

#endif // WSEL_STATS_PERSIST_ADAPTIVE_HH
