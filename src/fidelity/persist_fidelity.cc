#include "fidelity/persist_fidelity.hh"

#include <cstdio>
#include <filesystem>

#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel::fidelity
{

namespace
{

using persist::Reader;
using persist::Writer;

constexpr char kProfileMagic[8] = {'W', 'S', 'E', 'L',
                                   'E', 'P', 'R', 'O'};
constexpr char kEscalationMagic[8] = {'W', 'S', 'E', 'L',
                                      'E', 'S', 'C', 'L'};
constexpr char kBatchMagic[8] = {'W', 'S', 'E', 'L',
                                 'F', 'B', 'A', 'T'};
constexpr char kReportMagic[8] = {'W', 'S', 'E', 'L',
                                  'H', 'Y', 'B', 'R'};

constexpr std::uint64_t kMaxWindow = 4096;
constexpr std::uint64_t kMaxBenchmarks = 1u << 20;
constexpr std::uint64_t kMaxNameLen = 256;
constexpr std::uint64_t kMaxRows = 1ULL << 48;
constexpr std::uint64_t kMaxBatchRows = 1u << 20;

void
writeIntervalStats(Writer &w, const IntervalStats &s)
{
    const Welford &life = s.lifetime();
    w.u64(life.n);
    w.f64(life.mean);
    w.f64(life.m2);
    const std::vector<double> win = s.windowValues();
    w.u32(static_cast<std::uint32_t>(win.size()));
    w.f64s(win);
}

void
readIntervalStats(Reader &r, std::size_t capacity,
                  IntervalStats &into)
{
    Welford life;
    life.n = r.u64();
    life.mean = r.f64();
    life.m2 = r.f64();
    const std::uint32_t fill =
        r.count(r.u32(), capacity, "window fill");
    if (fill > life.n)
        r.fail("window larger than sample count");
    std::vector<double> win(fill);
    r.f64s(win);
    into.restore(life, win);
}

} // namespace

std::string
errorProfilePath(const std::string &cache_dir)
{
    return cache_dir + "/error_profile.bin";
}

std::string
escalationRecordPath(const std::string &dir)
{
    return dir + "/fidelity-bitmap.bin";
}

std::string
fidelityBatchName(std::uint64_t index)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "fidelity-batch-%06llu.bin",
                  static_cast<unsigned long long>(index));
    return buf;
}

std::string
fidelityBatchPath(const std::string &dir, std::uint64_t index)
{
    return dir + "/" + fidelityBatchName(index);
}

std::string
hybridReportPath(const std::string &dir)
{
    return dir + "/hybrid.bin";
}

void
writeErrorProfile(const std::string &path, const ErrorProfile &p)
{
    Writer w(kProfileMagic, kFidelityVersion,
             256 + 64 * p.numBenchmarks());
    w.u64(p.suiteHash());
    w.u32(static_cast<std::uint32_t>(
        p.globalStats().windowCapacity()));
    const std::size_t nb = p.numBenchmarks();
    w.u32(static_cast<std::uint32_t>(nb));
    for (std::size_t i = 0; i < nb; ++i) {
        w.str(p.benchmarkNames()[i]);
        w.u8(static_cast<std::uint8_t>(p.benchClass(i)));
        writeIntervalStats(w, p.benchStats(i));
    }
    for (std::size_t c = 0; c < ErrorProfile::kNumClasses; ++c)
        writeIntervalStats(w, p.classStats(c));
    writeIntervalStats(w, p.globalStats());
    w.u32(static_cast<std::uint32_t>(p.appliedIds().size()));
    for (std::uint64_t id : p.appliedIds())
        w.u64(id);
    w.seal(path);
}

ErrorProfile
readErrorProfile(const std::string &path)
{
    Reader r = Reader::open(path, kProfileMagic, kFidelityVersion,
                            "error profile");
    const std::uint64_t suite_hash = r.u64();
    const std::uint32_t window =
        r.count(r.u32(), kMaxWindow, "window capacity");
    if (window == 0)
        r.fail("zero window capacity");
    const std::uint32_t nb =
        r.count(r.u32(), kMaxBenchmarks, "benchmark count");
    std::vector<std::string> names;
    std::vector<MpkiClass> classes;
    names.reserve(nb);
    classes.reserve(nb);
    std::vector<IntervalStats> bench_stats(nb,
                                           IntervalStats(window));
    for (std::uint32_t i = 0; i < nb; ++i) {
        names.push_back(r.str());
        r.count(names.back().size(), kMaxNameLen,
                "benchmark-name length");
        const std::uint8_t cls = r.count(
            r.u8(), ErrorProfile::kNumClasses - 1, "MPKI class");
        classes.push_back(static_cast<MpkiClass>(cls));
        readIntervalStats(r, window, bench_stats[i]);
    }
    ErrorProfile p(suite_hash, std::move(names),
                   std::move(classes), window);
    for (std::uint32_t i = 0; i < nb; ++i)
        p.benchStatsMut(i) = std::move(bench_stats[i]);
    for (std::size_t c = 0; c < ErrorProfile::kNumClasses; ++c)
        readIntervalStats(r, window, p.classStatsMut(c));
    readIntervalStats(r, window, p.globalStatsMut());
    const std::uint32_t na = r.count(
        r.u32(), ErrorProfile::kMaxApplied, "applied-id count");
    std::vector<std::uint64_t> applied;
    applied.reserve(na);
    for (std::uint32_t i = 0; i < na; ++i)
        applied.push_back(r.u64());
    p.restoreApplied(std::move(applied));
    r.expectEnd();
    return p;
}

void
EscalationRecord::resizeBitmap()
{
    bitmap.assign(static_cast<std::size_t>((rows() + 7) / 8), 0);
}

bool
EscalationRecord::escalated(std::uint64_t row) const
{
    if (row >= rows())
        WSEL_FATAL("escalation bitmap row " << row
                   << " outside " << rows() << " rows");
    return (bitmap[static_cast<std::size_t>(row / 8)] >>
            (row % 8)) &
           1;
}

void
EscalationRecord::setEscalated(std::uint64_t row)
{
    if (row >= rows())
        WSEL_FATAL("escalation bitmap row " << row
                   << " outside " << rows() << " rows");
    bitmap[static_cast<std::size_t>(row / 8)] |=
        static_cast<std::uint8_t>(1u << (row % 8));
}

void
writeEscalationRecord(const std::string &dir,
                      const EscalationRecord &rec)
{
    if (rec.lastRank < rec.firstRank)
        WSEL_FATAL("escalation record rank range inverted");
    if (rec.bitmap.size() !=
        static_cast<std::size_t>((rec.rows() + 7) / 8))
        WSEL_FATAL("escalation record bitmap has "
                   << rec.bitmap.size() << " bytes for "
                   << rec.rows() << " rows");
    Writer w(kEscalationMagic, kFidelityVersion,
             256 + rec.bitmap.size());
    w.u64(rec.badcoFingerprint);
    w.u64(rec.detailedFingerprint);
    w.u64(rec.seed);
    w.str(rec.metric);
    w.str(rec.policyX);
    w.str(rec.policyY);
    w.f64(rec.quantile);
    w.f64(rec.budgetFraction);
    w.f64(rec.threshold);
    w.u64(rec.firstRank);
    w.u64(rec.lastRank);
    w.u64(rec.escalatedCount);
    w.bytes(rec.bitmap.data(), rec.bitmap.size());
    w.seal(escalationRecordPath(dir));
}

bool
hasEscalationRecord(const std::string &dir)
{
    std::error_code ec;
    return std::filesystem::is_regular_file(
        escalationRecordPath(dir), ec);
}

EscalationRecord
readEscalationRecord(const std::string &dir)
{
    Reader r = Reader::open(escalationRecordPath(dir),
                            kEscalationMagic, kFidelityVersion,
                            "fidelity bitmap");
    EscalationRecord rec;
    rec.badcoFingerprint = r.u64();
    rec.detailedFingerprint = r.u64();
    rec.seed = r.u64();
    rec.metric = r.str();
    r.count(rec.metric.size(), 64, "metric-name length");
    rec.policyX = r.str();
    r.count(rec.policyX.size(), kMaxNameLen, "policy-name length");
    rec.policyY = r.str();
    r.count(rec.policyY.size(), kMaxNameLen, "policy-name length");
    rec.quantile = r.f64();
    rec.budgetFraction = r.f64();
    rec.threshold = r.f64();
    rec.firstRank = r.u64();
    rec.lastRank = r.u64();
    rec.escalatedCount = r.u64();
    if (rec.lastRank < rec.firstRank)
        r.fail("inverted rank range");
    r.count(rec.rows(), kMaxRows, "row count");
    if (rec.escalatedCount > rec.rows())
        r.fail("escalated count " +
               std::to_string(rec.escalatedCount) + " exceeds " +
               std::to_string(rec.rows()) + " rows");
    const std::uint64_t bytes = (rec.rows() + 7) / 8;
    if (r.remaining() != bytes)
        r.fail("bitmap size mismatch");
    rec.bitmap.resize(static_cast<std::size_t>(bytes));
    r.bytes(rec.bitmap.data(), rec.bitmap.size());
    // Stray bits past the last row and a lying count are both
    // damage: the popcount must equal escalatedCount exactly.
    std::uint64_t pop = 0;
    for (std::uint64_t row = 0; row < rec.rows(); ++row)
        pop += rec.escalated(row) ? 1 : 0;
    if (pop != rec.escalatedCount)
        r.fail("bitmap popcount " + std::to_string(pop) +
               " does not match escalated count " +
               std::to_string(rec.escalatedCount));
    if (bytes > 0 && rec.rows() % 8 != 0) {
        const std::uint8_t tail = rec.bitmap.back();
        const unsigned used = rec.rows() % 8;
        if (tail >> used)
            r.fail("stray bits past the last row");
    }
    return rec;
}

void
writeFidelityBatch(const std::string &dir, const FidelityBatch &b)
{
    const std::size_t rows = b.ranks.size();
    const std::size_t want = rows *
                             static_cast<std::size_t>(
                                 b.numPolicies) *
                             b.cores;
    if (b.ipc.size() != want)
        WSEL_FATAL("fidelity batch " << b.index << " has "
                   << b.ipc.size() << " cells, expected " << want);
    Writer w(kBatchMagic, kFidelityVersion,
             32 + rows * 8 + b.ipc.size() * 8);
    w.u32(static_cast<std::uint32_t>(b.index));
    w.u64(b.detailedFingerprint);
    w.u32(b.cores);
    w.u32(b.numPolicies);
    w.u64(b.firstOrdinal);
    w.u32(static_cast<std::uint32_t>(rows));
    for (std::uint64_t rank : b.ranks)
        w.u64(rank);
    w.f64s(b.ipc);
    w.seal(fidelityBatchPath(dir, b.index));
}

FidelityBatch
readFidelityBatch(const std::string &dir,
                  std::uint64_t fingerprint, std::uint64_t index)
{
    Reader r = Reader::open(fidelityBatchPath(dir, index),
                            kBatchMagic, kFidelityVersion,
                            "fidelity " + fidelityBatchName(index));
    FidelityBatch b;
    b.index = r.u32();
    if (b.index != index)
        r.fail("wrong batch index");
    b.detailedFingerprint = r.u64();
    if (b.detailedFingerprint != fingerprint)
        r.fail("fingerprint mismatch");
    b.cores = r.count(r.u32(), 1024, "core count");
    b.numPolicies = r.count(r.u32(), 4096, "policy count");
    if (b.cores == 0 || b.numPolicies == 0)
        r.fail("degenerate shape");
    b.firstOrdinal = r.u64();
    const std::uint32_t rows =
        r.count(r.u32(), kMaxBatchRows, "row count");
    const std::uint64_t cells =
        static_cast<std::uint64_t>(rows) * b.numPolicies * b.cores;
    if (r.remaining() != rows * 8 + cells * 8)
        r.fail("payload size mismatch");
    b.ranks.reserve(rows);
    for (std::uint32_t i = 0; i < rows; ++i)
        b.ranks.push_back(r.u64());
    b.ipc.resize(static_cast<std::size_t>(cells));
    r.f64s(b.ipc);
    return b;
}

void
writeHybridReport(const std::string &dir,
                  const HybridReportRecord &rep)
{
    Writer w(kReportMagic, kFidelityVersion, 256);
    w.u64(rep.badcoFingerprint);
    w.u64(rep.detailedFingerprint);
    w.str(rep.metric);
    w.str(rep.policyX);
    w.str(rep.policyY);
    w.u64(rep.workloads);
    w.u64(rep.escalated);
    w.f64(rep.escalationFraction);
    w.f64(rep.meanD);
    w.f64(rep.sigma);
    w.f64(rep.se);
    w.f64(rep.cv);
    w.f64(rep.confidence);
    w.f64(rep.modelLo);
    w.f64(rep.modelHi);
    w.f64(rep.comboLo);
    w.f64(rep.comboHi);
    w.u8(rep.yWins);
    w.seal(hybridReportPath(dir));
}

bool
hasHybridReport(const std::string &dir)
{
    std::error_code ec;
    return std::filesystem::is_regular_file(hybridReportPath(dir),
                                            ec);
}

HybridReportRecord
readHybridReport(const std::string &dir)
{
    Reader r = Reader::open(hybridReportPath(dir), kReportMagic,
                            kFidelityVersion, "hybrid report");
    HybridReportRecord rep;
    rep.badcoFingerprint = r.u64();
    rep.detailedFingerprint = r.u64();
    rep.metric = r.str();
    r.count(rep.metric.size(), 64, "metric-name length");
    rep.policyX = r.str();
    r.count(rep.policyX.size(), kMaxNameLen, "policy-name length");
    rep.policyY = r.str();
    r.count(rep.policyY.size(), kMaxNameLen, "policy-name length");
    rep.workloads = r.count(r.u64(), kMaxRows, "workload count");
    rep.escalated = r.u64();
    if (rep.escalated > rep.workloads)
        r.fail("escalated count exceeds workload count");
    rep.escalationFraction = r.f64();
    rep.meanD = r.f64();
    rep.sigma = r.f64();
    rep.se = r.f64();
    rep.cv = r.f64();
    rep.confidence = r.f64();
    rep.modelLo = r.f64();
    rep.modelHi = r.f64();
    rep.comboLo = r.f64();
    rep.comboHi = r.f64();
    rep.yWins = r.u8();
    if (rep.yWins > 1)
        r.fail("non-boolean verdict");
    r.expectEnd();
    return rep;
}

} // namespace wsel::fidelity
