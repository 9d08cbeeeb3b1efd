#include "fidelity/escalation.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/scheduler.hh"
#include "obs/trace.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel::fidelity
{

namespace
{

void
checkBudget(double budget_fraction)
{
    if (!(budget_fraction >= 0.0 && budget_fraction <= 1.0))
        WSEL_FATAL("escalation budget fraction must be in [0, 1], "
                   "got " << budget_fraction);
}

} // namespace

EscalationOracle::EscalationOracle(ThroughputMetric m,
                                   const ErrorProfile &profile,
                                   double quantile,
                                   std::vector<double> ref_ipc)
    : m_(m), profile_(&profile), quantile_(quantile),
      refIpc_(std::move(ref_ipc))
{
    if (refIpc_.size() != profile.numBenchmarks())
        WSEL_FATAL("escalation oracle got " << refIpc_.size()
                   << " reference IPCs for a profile over "
                   << profile.numBenchmarks() << " benchmarks");
}

CellInterval
EscalationOracle::interval(std::span<const std::uint32_t> benches,
                           std::span<const double> ipc_x,
                           std::span<const double> ipc_y) const
{
    const std::size_t k = benches.size();
    if (ipc_x.size() != k || ipc_y.size() != k)
        WSEL_FATAL("escalation interval got " << ipc_x.size()
                   << "/" << ipc_y.size() << " IPCs for " << k
                   << " cores");
    lo_.resize(k);
    hi_.resize(k);
    refs_.resize(k);
    for (std::size_t c = 0; c < k; ++c)
        refs_[c] = refIpc_[benches[c]];

    CellInterval out;
    {
        const double tx =
            perWorkloadThroughput(m_, ipc_x, refs_);
        const double ty =
            perWorkloadThroughput(m_, ipc_y, refs_);
        out.d = perWorkloadDifference(m_, tx, ty);
    }

    // Per-core relative-error bounds, hoisted out of the corners
    // (they depend only on the benchmark).  An uncalibrated (+inf)
    // or >= 100% bound would push the lower corner to a
    // non-positive IPC — outside every metric's domain — so such a
    // cell degenerates straight to (-inf, +inf), which straddles
    // every threshold: an honest "escalate me" for a model with no
    // usable error history.
    for (std::size_t c = 0; c < k; ++c) {
        const double eb =
            profile_->errorBound(benches[c], quantile_);
        if (!(eb < 1.0)) {
            out.dLo = -std::numeric_limits<double>::infinity();
            out.dHi = std::numeric_limits<double>::infinity();
            return out;
        }
        hi_[c] = eb;
    }

    // perWorkloadThroughput is monotone increasing in every core's
    // IPC and perWorkloadDifference increases in t_Y and decreases
    // in t_X, so the interval corners are (X hi, Y lo) and
    // (X lo, Y hi).
    double tx_lo, tx_hi, ty_lo, ty_hi;
    const auto corner = [&](std::span<const double> ipc, bool up) {
        for (std::size_t c = 0; c < k; ++c)
            lo_[c] = ipc[c] * (up ? 1.0 + hi_[c] : 1.0 - hi_[c]);
        return perWorkloadThroughput(
            m_, {lo_.data(), lo_.size()}, refs_);
    };
    tx_lo = corner(ipc_x, false);
    tx_hi = corner(ipc_x, true);
    ty_lo = corner(ipc_y, false);
    ty_hi = corner(ipc_y, true);
    out.dLo = perWorkloadDifference(m_, tx_hi, ty_lo);
    out.dHi = perWorkloadDifference(m_, tx_lo, ty_hi);
    if (std::isnan(out.dLo) || std::isnan(out.dHi)) {
        // HSU/GSU corners can hit 1/0 or log 0 when an error bound
        // reaches 100%; treat the cell as maximally suspicious.
        out.dLo = -std::numeric_limits<double>::infinity();
        out.dHi = std::numeric_limits<double>::infinity();
    }
    return out;
}

std::vector<std::uint8_t>
selectEscalations(const std::vector<CellInterval> &cells,
                  double threshold, double budget_fraction)
{
    checkBudget(budget_fraction);
    const std::size_t n = cells.size();
    std::vector<std::uint8_t> flags(n, 0);
    std::vector<std::size_t> suspects;
    for (std::size_t i = 0; i < n; ++i)
        if (cells[i].straddles(threshold))
            suspects.push_back(i);
    const std::size_t budget = static_cast<std::size_t>(
        std::ceil(budget_fraction * static_cast<double>(n)));
    if (suspects.size() > budget) {
        // Keep the most ambiguous rows: smallest distance of the
        // point estimate to the threshold; stable sort + index
        // tie-break keeps the pick deterministic.
        std::stable_sort(
            suspects.begin(), suspects.end(),
            [&](std::size_t a, std::size_t b) {
                const double ma = std::abs(cells[a].d - threshold);
                const double mb = std::abs(cells[b].d - threshold);
                if (ma != mb)
                    return ma < mb;
                return a < b;
            });
        suspects.resize(budget);
    }
    for (std::size_t i : suspects)
        flags[i] = 1;
    return flags;
}

void
checkEscalationKnobs(double quantile, double budget_fraction)
{
    if (!(quantile > 0.0 && quantile < 1.0))
        WSEL_FATAL("escalation quantile must be in (0, 1), got "
                   << quantile);
    checkBudget(budget_fraction);
}

void
checkProfileSuite(const ErrorProfile &profile,
                  const std::vector<BenchmarkProfile> &suite)
{
    if (profile.suiteHash() != ErrorProfile::hashSuite(suite))
        WSEL_FATAL("error profile was calibrated for a different "
                   "suite; re-calibrate before escalating");
}

EscalationPlan
planEscalation(const persist::V3Manifest &m,
               const std::string &sweep_dir,
               const WorkloadPopulation &pop,
               const std::vector<BenchmarkProfile> &suite,
               const ErrorProfile &profile,
               const EscalationKnobs &knobs,
               const std::string &record_dir, bool resume,
               std::size_t jobs)
{
    checkEscalationKnobs(knobs.quantile, knobs.budgetFraction);
    checkProfileSuite(profile, suite);
    if (m.policies.size() < 2)
        WSEL_FATAL("escalation needs a sweep of two policies, got "
                   << m.policies.size());

    // Per-row intervals, recomputed every run (cheap and
    // deterministic given the profile): the hybrid report needs
    // them even when the set itself is pinned.
    obs::Span span("fidelity.intervals");
    EscalationPlan plan;
    plan.cells.resize(static_cast<std::size_t>(m.rows()));
    const std::size_t np = m.policies.size();
    const std::uint32_t k = m.cores;
    auto scan_shard = [&](std::size_t s) {
        const std::vector<double> payload =
            persist::readV3Shard(sweep_dir, m, s);
        EscalationOracle oracle(knobs.metric, profile, knobs.quantile,
                                m.refIpc);
        const std::uint64_t first = m.shardFirstRank(s);
        const std::uint64_t n = m.rowsInShard(s);
        WorkloadCursor cur(pop, first);
        for (std::uint64_t r = 0; r < n; ++r, cur.next()) {
            const double *row = payload.data() + r * np * k;
            plan.cells[static_cast<std::size_t>(
                first - m.firstRank + r)] =
                oracle.interval(cur.benchmarks(), {row, k},
                                {row + k, k});
        }
    };
    exec::forEachIndex(exec::resolveJobs(jobs), m.shardCount(),
                       scan_shard);

    // The identity of the set: every field but the bitmap.  A
    // committed record with other knobs is stale, not corrupt.
    EscalationRecord &rec = plan.record;
    rec.badcoFingerprint = m.fingerprint;
    rec.detailedFingerprint = knobs.detailedFingerprint;
    rec.seed = knobs.seed;
    rec.metric = toString(knobs.metric);
    rec.policyX = m.policies[0];
    rec.policyY = m.policies[1];
    rec.quantile = knobs.quantile;
    rec.budgetFraction = knobs.budgetFraction;
    rec.threshold = knobs.threshold;
    rec.firstRank = m.firstRank;
    rec.lastRank = m.lastRank;
    if (resume && hasEscalationRecord(record_dir)) {
        try {
            EscalationRecord got = readEscalationRecord(record_dir);
            EscalationRecord identity = got;
            identity.escalatedCount = 0;
            identity.bitmap.clear();
            if (identity == rec) {
                rec = std::move(got);
                return plan;
            }
        } catch (const persist::CacheInvalid &e) {
            persist::quarantineArtifact(
                escalationRecordPath(record_dir),
                "corrupt fidelity bitmap", e.what(),
                "recomputing the escalation set");
        }
    }

    const std::vector<std::uint8_t> flags = selectEscalations(
        plan.cells, knobs.threshold, knobs.budgetFraction);
    rec.resizeBitmap();
    for (std::uint64_t r = 0; r < rec.rows(); ++r) {
        if (flags[static_cast<std::size_t>(r)]) {
            rec.setEscalated(r);
            ++rec.escalatedCount;
        }
    }
    writeEscalationRecord(record_dir, rec);
    return plan;
}

} // namespace wsel::fidelity
