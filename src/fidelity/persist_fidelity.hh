/**
 * @file
 * On-disk formats of the mixed-fidelity layer (docs/FIDELITY.md).
 *
 * Four artifacts, all sealed files (persist::Writer in
 * stats/persist.hh describes the frame) with no timing content:
 *
 *     <cache>/error_profile.bin   the calibrated ErrorProfile,
 *                                 beside the model store
 *
 * and inside a hybrid campaign directory (which is also a
 * campaign_v3 directory holding the BADCO sweep):
 *
 *     <dir>/fidelity-bitmap.bin   the escalation set: which rows
 *                                 were flagged for detailed
 *                                 re-simulation, plus the knobs
 *                                 that produced the set.  Written
 *                                 BEFORE any detailed cell runs so
 *                                 a resumed run replays the same
 *                                 set even after the profile
 *                                 drifted.
 *     <dir>/fidelity-batch-*.bin  detailed IPC results for
 *                                 escalated rows, in rank order,
 *                                 batched for resume granularity
 *     <dir>/hybrid.bin            the confidence report — written
 *                                 last, the commit point
 */

#ifndef WSEL_FIDELITY_PERSIST_FIDELITY_HH
#define WSEL_FIDELITY_PERSIST_FIDELITY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fidelity/error_profile.hh"

namespace wsel::fidelity
{

inline constexpr std::uint32_t kFidelityVersion = 1;

std::string errorProfilePath(const std::string &cache_dir);
std::string escalationRecordPath(const std::string &dir);
std::string fidelityBatchName(std::uint64_t index);
std::string fidelityBatchPath(const std::string &dir,
                              std::uint64_t index);
std::string hybridReportPath(const std::string &dir);

/** Atomically write the profile as a checksummed blob. */
void writeErrorProfile(const std::string &path,
                       const ErrorProfile &p);

/**
 * Read + validate a profile; throws persist::CacheInvalid when
 * missing, truncated, checksum-damaged or internally implausible.
 */
ErrorProfile readErrorProfile(const std::string &path);

/**
 * The escalation set of one hybrid campaign: a row bitmap over the
 * BADCO sweep's rank range plus every knob that shaped the set.
 */
struct EscalationRecord
{
    std::uint64_t badcoFingerprint = 0;
    std::uint64_t detailedFingerprint = 0;
    std::uint64_t seed = 0;
    std::string metric;
    std::string policyX;
    std::string policyY;
    double quantile = 0.0;
    double budgetFraction = 0.0;
    double threshold = 0.0;
    std::uint64_t firstRank = 0;
    std::uint64_t lastRank = 0;
    std::uint64_t escalatedCount = 0;
    std::vector<std::uint8_t> bitmap; ///< ceil(rows/8), LSB-first

    bool operator==(const EscalationRecord &) const = default;
    std::uint64_t rows() const { return lastRank - firstRank; }
    void resizeBitmap();
    bool escalated(std::uint64_t row) const;
    void setEscalated(std::uint64_t row);
};

void writeEscalationRecord(const std::string &dir,
                           const EscalationRecord &rec);
bool hasEscalationRecord(const std::string &dir);
EscalationRecord readEscalationRecord(const std::string &dir);

/**
 * One batch of detailed re-simulation results: escalated rows in
 * rank order, row-major [row][policy][core] IPCs.
 */
struct FidelityBatch
{
    std::uint64_t detailedFingerprint = 0;
    std::uint64_t index = 0;        ///< batch number, from 0
    std::uint64_t firstOrdinal = 0; ///< first escalation ordinal
    std::uint32_t cores = 0;
    std::uint32_t numPolicies = 0;
    std::vector<std::uint64_t> ranks; ///< population rank per row
    std::vector<double> ipc; ///< rows x numPolicies x cores
};

void writeFidelityBatch(const std::string &dir,
                        const FidelityBatch &b);
FidelityBatch readFidelityBatch(const std::string &dir,
                                std::uint64_t fingerprint,
                                std::uint64_t index);

/** The hybrid confidence report (hybrid.bin, the commit point). */
struct HybridReportRecord
{
    std::uint64_t badcoFingerprint = 0;
    std::uint64_t detailedFingerprint = 0;
    std::string metric;
    std::string policyX;
    std::string policyY;
    std::uint64_t workloads = 0;
    std::uint64_t escalated = 0;
    double escalationFraction = 0.0;
    double meanD = 0.0;  ///< spliced mean d(w), d > 0 favours Y
    double sigma = 0.0;  ///< spliced population stddev of d(w)
    double se = 0.0;     ///< standard error of meanD
    double cv = 0.0;     ///< signed sigma / meanD
    double confidence = 0.0; ///< eq. 5 sampling confidence
    double modelLo = 0.0; ///< mean model-error slack below meanD
    double modelHi = 0.0; ///< mean model-error slack above meanD
    double comboLo = 0.0; ///< combined (sampling + model) lower
    double comboHi = 0.0; ///< combined (sampling + model) upper
    std::uint8_t yWins = 0;
};

void writeHybridReport(const std::string &dir,
                       const HybridReportRecord &r);
bool hasHybridReport(const std::string &dir);
HybridReportRecord readHybridReport(const std::string &dir);

} // namespace wsel::fidelity

#endif // WSEL_FIDELITY_PERSIST_FIDELITY_HH
