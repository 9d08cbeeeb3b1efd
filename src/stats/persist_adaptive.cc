#include "stats/persist_adaptive.hh"

#include <cstdio>
#include <filesystem>

#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel::persist
{

namespace
{

constexpr char kBatchMagic[8] = {'W', 'S', 'A', 'D',
                                 'B', 'T', 'C', 'H'};
constexpr char kDecisionMagic[8] = {'W', 'S', 'A', 'D',
                                    'D', 'C', 'S', 'N'};

/** Rows per batch / trajectory entries an artifact may claim. */
constexpr std::uint64_t kMaxBatchRows = 1ULL << 26;
constexpr std::uint64_t kMaxTrajectory = 1ULL << 24;

} // namespace

std::string
adaptiveBatchName(std::uint64_t index)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "batch-%06llu.bin",
                  static_cast<unsigned long long>(index));
    return buf;
}

std::string
adaptiveBatchPath(const std::string &dir, std::uint64_t index)
{
    return dir + "/" + adaptiveBatchName(index);
}

std::string
adaptiveDecisionPath(const std::string &dir)
{
    return dir + "/adaptive.bin";
}

void
writeAdaptiveBatch(const std::string &dir, const AdaptiveBatch &b)
{
    if (b.ranks.size() != b.d.size())
        WSEL_FATAL("adaptive batch " << b.index << " has "
                   << b.ranks.size() << " ranks for " << b.d.size()
                   << " d values");
    if (b.ranks.empty())
        WSEL_FATAL("adaptive batch " << b.index << " is empty");
    Writer w(kBatchMagic, kAdaptiveVersion,
             32 + b.ranks.size() * 16);
    w.u64(b.fingerprint);
    w.u64(b.index);
    w.u64(b.firstPosition);
    w.u64(b.ranks.size());
    for (std::uint64_t r : b.ranks)
        w.u64(r);
    w.f64s(b.d);
    w.seal(adaptiveBatchPath(dir, b.index));
}

AdaptiveBatch
readAdaptiveBatch(const std::string &dir, std::uint64_t fingerprint,
                  std::uint64_t index)
{
    Reader r = Reader::open(adaptiveBatchPath(dir, index),
                            kBatchMagic, kAdaptiveVersion,
                            "adaptive " + adaptiveBatchName(index));
    AdaptiveBatch b;
    b.fingerprint = r.u64();
    if (b.fingerprint != fingerprint)
        r.fail("fingerprint mismatch");
    b.index = r.u64();
    if (b.index != index)
        r.fail("wrong batch index");
    b.firstPosition = r.u64();
    const std::uint64_t rows =
        r.count(r.u64(), kMaxBatchRows, "row count");
    if (rows == 0)
        r.fail("empty batch");
    if (r.remaining() != rows * 16)
        r.fail("payload size mismatch");
    b.ranks.reserve(rows);
    for (std::uint64_t i = 0; i < rows; ++i)
        b.ranks.push_back(r.u64());
    b.d.resize(rows);
    r.f64s(b.d);
    return b;
}

void
writeAdaptiveDecision(const std::string &dir,
                      const AdaptiveDecisionRecord &d)
{
    Writer w(kDecisionMagic, kAdaptiveVersion,
             64 + d.method.size() + d.trajectory.size() * 8);
    w.u64(d.fingerprint);
    w.u8(d.reason);
    w.u8(d.yWins);
    w.str(d.method);
    w.u64(d.batches);
    w.u64(d.workloads);
    w.f64(d.confidence);
    w.f64(d.cv);
    w.f64(d.target);
    w.u32(static_cast<std::uint32_t>(d.trajectory.size()));
    w.f64s(d.trajectory);
    w.seal(adaptiveDecisionPath(dir));
}

bool
hasAdaptiveDecision(const std::string &dir)
{
    std::error_code ec;
    return std::filesystem::is_regular_file(
        adaptiveDecisionPath(dir), ec);
}

AdaptiveDecisionRecord
readAdaptiveDecision(const std::string &dir)
{
    Reader r = Reader::open(adaptiveDecisionPath(dir),
                            kDecisionMagic, kAdaptiveVersion,
                            "adaptive decision");
    AdaptiveDecisionRecord d;
    d.fingerprint = r.u64();
    d.reason = r.u8();
    d.yWins = r.u8();
    d.method = r.str();
    r.count(d.method.size(), 64, "method-name length");
    d.batches = r.u64();
    d.workloads = r.u64();
    d.confidence = r.f64();
    d.cv = r.f64();
    d.target = r.f64();
    const std::uint32_t nt =
        r.count(r.u32(), kMaxTrajectory, "trajectory length");
    if (r.remaining() != static_cast<std::size_t>(nt) * 8)
        r.fail("payload size mismatch");
    d.trajectory.resize(nt);
    r.f64s(d.trajectory);
    return d;
}

} // namespace wsel::persist
