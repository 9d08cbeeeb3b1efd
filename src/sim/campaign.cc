#include "sim/campaign.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>

#include "exec/scheduler.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "stats/persist_v3.hh"
#include "trace/trace_store.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define WSEL_HAVE_POSIX_IO 1
#endif

namespace wsel
{

namespace
{

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

void
progress(const CampaignOptions &opts, const std::string &what,
         std::size_t done, std::size_t total)
{
    if (!opts.verbose || opts.progressEvery == 0)
        return;
    if (done % opts.progressEvery == 0 || done == total) {
        std::ostringstream os;
        os << "  [" << what << "] " << done << "/" << total;
        logLine(os.str());
    }
}

/**
 * Strict unsigned parse: digits only, fully consumed.  Unlike raw
 * std::stoull this rejects "-1" and "12x" and never leaks
 * std::invalid_argument/std::out_of_range to the caller.
 */
std::uint64_t
parseU64(const std::string &s, const char *what,
         std::size_t line_no)
{
    if (s.empty() || s.size() > 20)
        throw persist::CacheInvalid(
            std::string("malformed ") + what + " '" + s +
            "' at line " + std::to_string(line_no));
    std::uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            throw persist::CacheInvalid(
                std::string("malformed ") + what + " '" + s +
                "' at line " + std::to_string(line_no));
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return v;
}

/** Strict double parse; CacheInvalid instead of raw std exceptions. */
double
parseDouble(const std::string &s, const char *what,
            std::size_t line_no)
{
    try {
        std::size_t pos = 0;
        const double v = std::stod(s, &pos);
        if (pos != s.size())
            throw std::invalid_argument("trailing garbage");
        return v;
    } catch (const std::exception &) {
        throw persist::CacheInvalid(
            std::string("malformed ") + what + " '" + s +
            "' at line " + std::to_string(line_no));
    }
}

std::vector<double>
parseDoubleList(const std::string &s, const char *what,
                std::size_t line_no)
{
    std::vector<double> out;
    for (const std::string &v : splitOn(s, ';'))
        out.push_back(parseDouble(v, what, line_no));
    return out;
}

/** Sequential line reader tracking 1-based line numbers. */
class LineReader
{
  public:
    explicit LineReader(const std::string &text) : is_(text) {}

    bool
    next(std::string &line)
    {
        if (!std::getline(is_, line))
            return false;
        ++lineNo_;
        return true;
    }

    std::size_t lineNo() const { return lineNo_; }

  private:
    std::istringstream is_;
    std::size_t lineNo_ = 0;
};

/**
 * Parse a v1/v2 campaign body (footer already stripped and
 * verified for v2).  Throws persist::CacheInvalid on any problem.
 */
Campaign
parseCampaignBody(const std::string &body, int version)
{
    Campaign c;
    c.formatVersion = version;
    LineReader reader(body);
    std::string line;
    auto next = [&](const char *tag) -> std::string {
        if (!reader.next(line))
            throw persist::CacheInvalid(
                std::string("truncated: missing '") + tag +
                "' line");
        const auto f = splitOn(line, ',');
        if (f.size() < 2 || f[0] != tag)
            throw persist::CacheInvalid(
                std::string("expected '") + tag + "' at line " +
                std::to_string(reader.lineNo()) + ", got '" + line +
                "'");
        return f[1];
    };
    next("wsel-campaign"); // already validated by the caller
    if (version >= 2) {
        if (!persist::parseHex(next("fingerprint"), c.fingerprint))
            throw persist::CacheInvalid(
                "malformed fingerprint at line " +
                std::to_string(reader.lineNo()));
    }
    c.simulator = next("simulator");
    c.cores = static_cast<std::uint32_t>(
        parseU64(next("cores"), "core count", reader.lineNo()));
    if (c.cores == 0 || c.cores > 1024)
        throw persist::CacheInvalid(
            "implausible core count " + std::to_string(c.cores));
    c.targetUops =
        parseU64(next("target"), "target uops", reader.lineNo());
    c.simSeconds = parseDouble(next("simseconds"), "simseconds",
                               reader.lineNo());
    c.instructions = parseU64(next("instructions"), "instructions",
                              reader.lineNo());
    try {
        for (const std::string &p : splitOn(next("policies"), ';'))
            c.policies.push_back(parsePolicyKind(p));
    } catch (const FatalError &e) {
        throw persist::CacheInvalid(
            std::string("unknown policy at line ") +
            std::to_string(reader.lineNo()) + ": " + e.what());
    }
    if (c.policies.empty())
        throw persist::CacheInvalid("empty policy list");
    for (const std::string &b : splitOn(next("benchmarks"), ';'))
        c.benchmarks.push_back(b);
    c.refIpc = parseDoubleList(next("refipc"), "reference IPC",
                               reader.lineNo());
    if (c.refIpc.size() != c.benchmarks.size())
        throw persist::CacheInvalid(
            "refipc count " + std::to_string(c.refIpc.size()) +
            " does not match " + std::to_string(c.benchmarks.size()) +
            " benchmarks");
    const std::uint64_t nw64 = parseU64(
        next("nworkloads"), "workload count", reader.lineNo());
    if (nw64 > 50'000'000)
        throw persist::CacheInvalid(
            "implausible workload count " + std::to_string(nw64));
    const std::size_t nw = static_cast<std::size_t>(nw64);
    std::vector<Workload> wls;
    wls.reserve(nw);
    for (std::size_t w = 0; w < nw; ++w) {
        if (!reader.next(line))
            throw persist::CacheInvalid("truncated workload list");
        const auto f = splitOn(line, ',');
        if (f.size() != 2 || f[0] != "w")
            throw persist::CacheInvalid(
                "bad workload line '" + line + "' at line " +
                std::to_string(reader.lineNo()));
        std::vector<std::uint32_t> benches;
        for (const std::string &b : splitOn(f[1], ';')) {
            const std::uint64_t idx = parseU64(
                b, "benchmark index", reader.lineNo());
            if (idx >= c.benchmarks.size())
                throw persist::CacheInvalid(
                    "benchmark index " + std::to_string(idx) +
                    " out of range at line " +
                    std::to_string(reader.lineNo()));
            benches.push_back(static_cast<std::uint32_t>(idx));
        }
        if (benches.size() != c.cores)
            throw persist::CacheInvalid(
                "workload at line " +
                std::to_string(reader.lineNo()) + " has " +
                std::to_string(benches.size()) + " slots, campaign "
                "has " + std::to_string(c.cores) + " cores");
        wls.push_back(Workload(std::move(benches)));
    }
    c.workloads = WorkloadSet(std::move(wls));
    c.ipc.reshape(c.policies.size(), nw, c.cores);
    // The contiguous matrix is zero-initialized, so duplicate
    // detection needs its own bitmap (a zero cell is legal).
    std::vector<char> seen(c.policies.size() * nw, 0);
    std::size_t rows = 0;
    while (reader.next(line)) {
        if (line.empty())
            continue;
        const auto f = splitOn(line, ',');
        if (f.size() != 4 || f[0] != "i")
            throw persist::CacheInvalid(
                "bad ipc line '" + line + "' at line " +
                std::to_string(reader.lineNo()));
        const std::size_t p = static_cast<std::size_t>(
            parseU64(f[1], "policy index", reader.lineNo()));
        const std::size_t w = static_cast<std::size_t>(
            parseU64(f[2], "workload index", reader.lineNo()));
        if (p >= c.policies.size() || w >= nw)
            throw persist::CacheInvalid(
                "ipc line out of range at line " +
                std::to_string(reader.lineNo()));
        if (seen[p * nw + w])
            throw persist::CacheInvalid(
                "duplicate ipc cell (" + std::to_string(p) + "," +
                std::to_string(w) + ") at line " +
                std::to_string(reader.lineNo()));
        std::vector<double> ipcs =
            parseDoubleList(f[3], "IPC value", reader.lineNo());
        if (ipcs.size() != c.cores)
            throw persist::CacheInvalid(
                "ipc cell at line " +
                std::to_string(reader.lineNo()) + " has " +
                std::to_string(ipcs.size()) + " values, expected " +
                std::to_string(c.cores));
        c.ipc.setCell(p, w, {ipcs.data(), ipcs.size()});
        seen[p * nw + w] = 1;
        ++rows;
    }
    if (rows != c.policies.size() * nw)
        throw persist::CacheInvalid(
            "has " + std::to_string(rows) + " ipc rows, expected " +
            std::to_string(c.policies.size() * nw));
    return c;
}

/** Full validated load; throws persist::CacheInvalid on problems. */
Campaign
loadImpl(const std::string &path)
{
    const std::string text = persist::readFile(path);
    const std::size_t eol = text.find('\n');
    const std::string first =
        text.substr(0, eol == std::string::npos ? text.size() : eol);
    int version = 0;
    if (first == "wsel-campaign,v1")
        version = 1;
    else if (first == "wsel-campaign,v2")
        version = 2;
    else
        throw persist::CacheInvalid(
            "not a wsel campaign file (first line '" + first + "')");
    std::string body = text;
    if (version >= 2) {
        // The footer must be the last line:
        //   footer,<ipc-row-count>,<fnv1a of all preceding bytes>
        const std::size_t pos = text.rfind("\nfooter,");
        if (pos == std::string::npos)
            throw persist::CacheInvalid(
                "truncated: missing integrity footer");
        body = text.substr(0, pos + 1);
        std::string footer = text.substr(pos + 1);
        if (!footer.empty() && footer.back() == '\n')
            footer.pop_back();
        else
            throw persist::CacheInvalid(
                "truncated: unterminated integrity footer");
        const auto f = splitOn(footer, ',');
        std::uint64_t want = 0;
        if (f.size() != 3 || !persist::parseHex(f[2], want))
            throw persist::CacheInvalid(
                "malformed integrity footer '" + footer + "'");
        const std::uint64_t rows = parseU64(f[1], "footer row count",
                                            0);
        if (persist::fnv1a(body) != want)
            throw persist::CacheInvalid(
                "checksum mismatch (file damaged or edited)");
        Campaign c = parseCampaignBody(body, version);
        if (rows != c.policies.size() * c.workloads.size())
            throw persist::CacheInvalid(
                "footer row count " + std::to_string(rows) +
                " does not match body");
        return c;
    }
    return parseCampaignBody(body, version);
}

/**
 * Load a sharded binary campaign_v3 directory (population
 * campaigns, src/stats/persist_v3.hh).  Throws
 * persist::CacheInvalid on any validation failure.
 */
Campaign
loadV3Impl(const std::string &path)
{
    const persist::V3Manifest m = persist::readV3Manifest(path);
    Campaign c;
    c.formatVersion = 3;
    c.fingerprint = m.fingerprint;
    c.simulator = m.simulator;
    c.cores = m.cores;
    c.targetUops = m.targetUops;
    c.simSeconds = m.simSeconds;
    c.instructions = m.instructions;
    try {
        for (const std::string &p : m.policies)
            c.policies.push_back(parsePolicyKind(p));
    } catch (const FatalError &e) {
        throw persist::CacheInvalid(
            std::string("campaign_v3 manifest: unknown policy: ") +
            e.what());
    }
    c.benchmarks = m.benchmarks;
    c.refIpc = m.refIpc;
    if (m.popBenchmarks == 0 || m.popCores == 0 ||
        m.popCores != m.cores ||
        m.popBenchmarks != m.benchmarks.size())
        throw persist::CacheInvalid(
            "campaign_v3 manifest: bad population shape");
    const WorkloadPopulation pop(m.popBenchmarks, m.popCores);
    if (m.lastRank > pop.size() || m.firstRank > m.lastRank)
        throw persist::CacheInvalid(
            "campaign_v3 manifest: rank range outside population");
    const std::size_t nw =
        static_cast<std::size_t>(m.rows());
    const std::size_t np = c.policies.size();
    // The manifest's counts drive the workload-list and matrix
    // allocations below; bound them (overflow-safely: divide,
    // don't multiply) BEFORE materializing anything so a
    // checksum-valid but hostile or corrupted manifest cannot ask
    // for an absurd materialization.  2^31 cells = 16 GiB is far
    // beyond any real campaign (the full 8-core population is
    // ~173M cells) but still refuses the 2^60-cell lies a flipped
    // size field can produce.
    constexpr std::uint64_t kMaxLoadCells = 1ULL << 31;
    const std::uint64_t cells_per_row =
        static_cast<std::uint64_t>(np) * c.cores;
    if (cells_per_row == 0 ||
        m.rows() > kMaxLoadCells / cells_per_row)
        throw persist::CacheInvalid(
            "campaign_v3 manifest: declared campaign too large to "
            "materialize (" + std::to_string(m.rows()) + " rows x " +
            std::to_string(np) + " policies x " +
            std::to_string(c.cores) + " cores)");
    c.workloads =
        WorkloadSet::populationRange(pop, m.firstRank, m.lastRank);
    c.ipc.reshape(np, nw, c.cores);
    for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
        const std::vector<double> payload =
            persist::readV3Shard(path, m, s);
        // Shards are row-major (workload, policy, core); the
        // matrix is policy-major, so scatter by cell.
        const std::size_t rows =
            static_cast<std::size_t>(m.rowsInShard(s));
        const std::size_t base_w =
            static_cast<std::size_t>(s * m.shardRows);
        const double *src = payload.data();
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t p = 0; p < np; ++p) {
                c.ipc.setCell(p, base_w + r, {src, c.cores});
                src += c.cores;
            }
        }
    }
    return c;
}

/**
 * Append-only checkpoint journal for a running campaign: one
 * self-checksummed line per completed (policy, workload) cell, so
 * a killed campaign loses at most the unflushed batch (batch size
 * 1, the serial default, fsyncs every cell before the next
 * starts).  Appends are serialized by a mutex, so the parallel
 * campaign runners may call append from any worker.  A journal
 * left by a previous run is replayed when the header (fingerprint
 * and shape) matches; a mismatched or damaged header quarantines
 * the journal and starts fresh; a damaged tail (the record being
 * written at the kill) is dropped and truncated away.
 */
class CampaignJournal
{
  public:
    CampaignJournal(std::string path, std::uint64_t fingerprint,
                    std::size_t npolicies, std::size_t nworkloads,
                    std::size_t batch = 1)
        : path_(std::move(path)), fingerprint_(fingerprint),
          np_(npolicies), nw_(nworkloads),
          batch_(batch ? batch : 1), done_(np_ * nw_, 0),
          cells_(np_ * nw_)
    {
        replay();
        openAppend();
    }

    ~CampaignJournal()
    {
        try {
            std::lock_guard<std::mutex> g(mu_);
            flushLocked();
        } catch (...) {
            // Best-effort: a record lost here is simply
            // re-simulated on resume.
        }
#ifdef WSEL_HAVE_POSIX_IO
        if (fd_ >= 0)
            ::close(fd_);
#else
        os_.close();
#endif
    }

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    bool
    done(std::size_t p, std::size_t w) const
    {
        return done_[p * nw_ + w] != 0;
    }

    const std::vector<double> &
    cell(std::size_t p, std::size_t w) const
    {
        return cells_[p * nw_ + w];
    }

    std::size_t replayedCount() const { return replayed_; }
    double replayedSeconds() const { return replayedSeconds_; }

    std::uint64_t
    replayedInstructions() const
    {
        return replayedInstructions_;
    }

    /**
     * Record a completed cell.  Durable once the batch it belongs
     * to is flushed: immediately at batch size 1, otherwise by the
     * flush when the batch fills, by flush(), or by the
     * destructor.  Thread-safe.
     */
    void
    append(std::size_t p, std::size_t w, const SimResult &r)
    {
        std::lock_guard<std::mutex> g(mu_);
        persist::faultPoint("journal.before-append");
        std::ostringstream os;
        os.precision(17);
        os << "r," << p << "," << w << ",";
        for (std::size_t k = 0; k < r.ipc.size(); ++k)
            os << (k ? ";" : "") << r.ipc[k];
        os << "," << r.wallSeconds << "," << r.instructions;
        const std::string prefix = os.str();
        buffer_.push_back(prefix + "," +
                          persist::toHex(persist::fnv1a(prefix)) +
                          "\n");
        if (buffer_.size() >= batch_)
            flushLocked();
    }

    /** Write and fsync every buffered record.  Thread-safe. */
    void
    flush()
    {
        std::lock_guard<std::mutex> g(mu_);
        flushLocked();
    }

  private:
    /**
     * Flush the buffer with one write and one fsync.  The
     * journal.append fault point fires once per record after the
     * fsync, preserving the serial contract ("killed after the
     * nth durable record") that the resilience tests count on.
     */
    void
    flushLocked()
    {
        if (buffer_.empty())
            return;
        std::string block;
        for (const std::string &line : buffer_)
            block += line;
        const std::size_t n = buffer_.size();
        buffer_.clear();
        {
            static obs::LatencyHistogram &flushNs =
                obs::histogram("campaign.journal_flush_ns");
            obs::LatencyHistogram::Timer t(flushNs);
            writeLine(block);
        }
        for (std::size_t i = 0; i < n; ++i)
            persist::faultPoint("journal.append");
    }

    std::string
    headerLine() const
    {
        return "wsel-journal,v2," + persist::toHex(fingerprint_) +
               "," + std::to_string(np_) + "," +
               std::to_string(nw_) + "\n";
    }

    void
    replay()
    {
        std::error_code ec;
        if (!std::filesystem::exists(path_, ec))
            return;
        std::string text;
        try {
            text = persist::readFile(path_);
        } catch (const persist::CacheInvalid &) {
            return;
        }
        if (text.empty())
            return;
        const std::string header = headerLine();
        if (text.rfind(header, 0) != 0) {
            persist::quarantineArtifact(
                path_, "stale campaign journal",
                "does not match this campaign's configuration",
                "restarting from scratch");
            return;
        }
        std::size_t good_end = header.size();
        std::size_t at = header.size();
        bool damaged = false;
        while (at < text.size()) {
            const std::size_t nl = text.find('\n', at);
            if (nl == std::string::npos)
                break; // record in flight at the kill; drop it
            if (!replayRecord(text.substr(at, nl - at))) {
                damaged = true;
                break;
            }
            at = nl + 1;
            good_end = at;
        }
        if (damaged)
            warn("campaign journal " + path_ +
                 " has a damaged record; dropping it and every "
                 "later record");
        if (good_end < text.size())
            std::filesystem::resize_file(path_, good_end, ec);
    }

    bool
    replayRecord(const std::string &line)
    {
        const std::size_t crc_at = line.find_last_of(',');
        if (crc_at == std::string::npos)
            return false;
        std::uint64_t want = 0;
        if (!persist::parseHex(line.substr(crc_at + 1), want) ||
            persist::fnv1a(line.substr(0, crc_at)) != want)
            return false;
        const auto f = splitOn(line, ',');
        if (f.size() != 7 || f[0] != "r")
            return false;
        try {
            const std::size_t p =
                static_cast<std::size_t>(parseU64(f[1], "p", 0));
            const std::size_t w =
                static_cast<std::size_t>(parseU64(f[2], "w", 0));
            if (p >= np_ || w >= nw_)
                return false;
            std::vector<double> ipcs =
                parseDoubleList(f[3], "ipc", 0);
            const double wall = parseDouble(f[4], "wall", 0);
            const std::uint64_t insns = parseU64(f[5], "insns", 0);
            const std::size_t idx = p * nw_ + w;
            if (done_[idx])
                return true; // duplicate; first record wins
            done_[idx] = 1;
            cells_[idx] = std::move(ipcs);
            ++replayed_;
            replayedSeconds_ += wall;
            replayedInstructions_ += insns;
            return true;
        } catch (const persist::CacheInvalid &) {
            return false;
        }
    }

    void
    openAppend()
    {
#ifdef WSEL_HAVE_POSIX_IO
        fd_ = ::open(path_.c_str(),
                     O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd_ < 0)
            WSEL_FATAL("cannot open campaign journal '"
                       << path_ << "': " << strerror(errno));
        if (::lseek(fd_, 0, SEEK_END) == 0)
            writeLine(headerLine());
#else
        const bool fresh = !std::filesystem::exists(path_) ||
                           std::filesystem::file_size(path_) == 0;
        os_.open(path_, std::ios::binary | std::ios::app);
        if (!os_)
            WSEL_FATAL("cannot open campaign journal '" << path_
                                                        << "'");
        if (fresh)
            writeLine(headerLine());
#endif
    }

    void
    writeLine(const std::string &line)
    {
#ifdef WSEL_HAVE_POSIX_IO
        std::size_t off = 0;
        while (off < line.size()) {
            const ssize_t n =
                ::write(fd_, line.data() + off, line.size() - off);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                WSEL_FATAL("write to campaign journal '"
                           << path_
                           << "' failed: " << strerror(errno));
            }
            off += static_cast<std::size_t>(n);
        }
        if (::fsync(fd_) != 0)
            WSEL_FATAL("fsync of campaign journal '"
                       << path_ << "' failed: " << strerror(errno));
#else
        os_ << line;
        os_.flush();
        if (!os_)
            WSEL_FATAL("write to campaign journal '" << path_
                                                     << "' failed");
#endif
    }

    std::string path_;
    std::uint64_t fingerprint_;
    std::size_t np_, nw_;
    std::size_t batch_;
    std::mutex mu_;
    std::vector<std::string> buffer_;
    std::vector<char> done_;
    std::vector<std::vector<double>> cells_;
    std::size_t replayed_ = 0;
    double replayedSeconds_ = 0.0;
    std::uint64_t replayedInstructions_ = 0;
#ifdef WSEL_HAVE_POSIX_IO
    int fd_ = -1;
#else
    std::ofstream os_;
#endif
};

/** Open the journal configured in @p opts (null when disabled). */
std::unique_ptr<CampaignJournal>
openJournal(const CampaignOptions &opts, Campaign &c,
            std::size_t npolicies, std::size_t nworkloads)
{
    if (opts.journalPath.empty())
        return nullptr;
    std::size_t batch = opts.journalBatch;
    if (batch == 0)
        batch = exec::resolveJobs(opts.jobs) > 1 ? 16 : 1;
    auto j = std::make_unique<CampaignJournal>(
        opts.journalPath, c.fingerprint, npolicies, nworkloads,
        batch);
    if (j->replayedCount() > 0) {
        c.simSeconds += j->replayedSeconds();
        c.instructions += j->replayedInstructions();
        logLine("  [campaign] resuming from journal: " +
                std::to_string(j->replayedCount()) + "/" +
                std::to_string(npolicies * nworkloads) +
                " cells already simulated");
    }
    return j;
}

/**
 * Shared cell-execution engine behind the campaign runners.
 * Resolves journaled cells, runs the rest via @p run_cell — a
 * plain row-major loop when the resolved job count is 1 (the
 * legacy serial semantics the resilience tests rely on), a
 * work-stealing pool otherwise — and accumulates simSeconds and
 * instructions per cell in index order, so the totals (and the
 * IPC matrix) are bitwise independent of the thread count and of
 * task completion order.
 */
void
runCells(Campaign &c, const CampaignOptions &opts,
         CampaignJournal *journal, const std::string &sim_name,
         const std::function<SimResult(std::size_t, std::size_t,
                                       std::uint64_t)> &run_cell)
{
    const std::size_t nw = c.workloads.size();
    const std::size_t total = c.policies.size() * nw;
    const std::size_t jobs = exec::resolveJobs(opts.jobs);
    std::vector<double> wall(total, 0.0);
    std::vector<std::uint64_t> insns(total, 0);
    std::atomic<std::size_t> done{0};
    auto label = [&](std::size_t p) {
        return sim_name + " " + toString(c.policies[p]);
    };
    auto cell = [&](std::size_t idx) {
        const std::size_t p = idx / nw;
        const std::size_t w = idx % nw;
        if (journal && journal->done(p, w)) {
            static obs::Counter &resumed =
                obs::counter("campaign.cells_resumed");
            resumed.inc();
            const std::vector<double> &jc = journal->cell(p, w);
            c.ipc.setCell(p, w, {jc.data(), jc.size()});
            progress(opts, label(p) + " (resumed)",
                     done.fetch_add(1) + 1, total);
            return;
        }
        std::string tag;
        if (obs::tracingEnabled()) {
            tag = "policy=" + toString(c.policies[p]) +
                  ",workload=";
            c.workloads.keyInto(w, tag);
        }
        obs::Span span("campaign.cell", tag);
        static obs::Counter &cells = obs::counter("campaign.cells");
        static obs::LatencyHistogram &cellNs =
            obs::histogram("campaign.cell_ns");
        obs::LatencyHistogram::Timer timer(cellNs);
        const SimResult r = run_cell(
            p, w, campaignCellSeed(c.fingerprint, opts.seed, p, w));
        cells.inc();
        c.ipc.setCell(p, w, {r.ipc.data(), r.ipc.size()});
        wall[idx] = r.wallSeconds;
        insns[idx] = r.instructions;
        if (journal)
            journal->append(p, w, r);
        progress(opts, label(p), done.fetch_add(1) + 1, total);
    };
    const auto t0 = std::chrono::steady_clock::now();
    if (jobs <= 1) {
        for (std::size_t idx = 0; idx < total; ++idx)
            cell(idx);
    } else {
        exec::ThreadPool pool(jobs);
        exec::parallel_for(pool, std::size_t{0}, total, cell);
        if (opts.verbose) {
            if (obs::metricsEnabled()) {
                // Scheduler behavior now lives in the metrics
                // registry; print that section instead of the old
                // ad-hoc SchedulerStats dump.
                std::ostringstream os;
                os << "  [" << sim_name << "] " << jobs
                   << " jobs; scheduler metrics:\n"
                   << obs::metricsSnapshot().toTable("scheduler.");
                logLine(os.str());
            } else {
                const exec::SchedulerStats st = pool.stats();
                std::ostringstream os;
                os << "  [" << sim_name << "] " << st.threads
                   << " jobs, " << st.tasksRun << " tasks, "
                   << st.tasksStolen << " stolen, "
                   << st.tasksHelped << " helped";
                logLine(os.str());
            }
        }
    }
    if (obs::metricsEnabled()) {
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (elapsed > 0.0) {
            obs::gauge("campaign.cells_per_sec")
                .set(static_cast<double>(total) / elapsed);
        }
    }
    if (journal)
        journal->flush();
    for (std::size_t idx = 0; idx < total; ++idx) {
        c.simSeconds += wall[idx];
        c.instructions += insns[idx];
    }
}

} // namespace

std::uint64_t
campaignFingerprint(const std::string &simulator,
                    std::uint32_t cores, std::uint64_t target_uops,
                    const std::vector<PolicyKind> &policies,
                    const std::vector<BenchmarkProfile> &suite)
{
    persist::Fnv1a h;
    h.update(simulator).update("|");
    h.updateU64(cores).updateU64(target_uops);
    h.updateU64(policies.size());
    for (PolicyKind p : policies)
        h.update(toString(p)).update(",");
    h.updateU64(suite.size());
    for (const BenchmarkProfile &p : suite) {
        h.update(p.name).update(",");
        h.updateU64(p.parameterHash());
    }
    return h.digest();
}

std::uint64_t
campaignCellSeed(std::uint64_t fingerprint,
                 std::uint64_t base_seed, std::size_t policy,
                 std::size_t workload)
{
    persist::Fnv1a h;
    h.updateU64(fingerprint);
    h.updateU64(base_seed);
    h.updateU64(policy);
    h.updateU64(workload);
    const std::uint64_t seed = h.digest();
    return seed ? seed : 0x9e3779b97f4a7c15ULL;
}

std::size_t
Campaign::policyIndex(PolicyKind kind) const
{
    for (std::size_t i = 0; i < policies.size(); ++i) {
        if (policies[i] == kind)
            return i;
    }
    WSEL_FATAL("campaign has no data for policy " << toString(kind));
}

std::vector<double>
Campaign::perWorkloadThroughputs(std::size_t policy_idx,
                                 ThroughputMetric m) const
{
    std::vector<double> t(workloads.size());
    perWorkloadThroughputsInto(policy_idx, m,
                               {t.data(), t.size()});
    return t;
}

void
Campaign::perWorkloadThroughputsInto(std::size_t policy_idx,
                                     ThroughputMetric m,
                                     std::span<double> out) const
{
    if (policy_idx >= policies.size())
        WSEL_FATAL("policy index " << policy_idx << " out of range");
    if (out.size() != workloads.size())
        WSEL_FATAL("throughput buffer has " << out.size()
                                            << " slots for "
                                            << workloads.size()
                                            << " workloads");
    std::vector<double> refs(cores, 1.0);
    workloads.forEach(
        [&](std::size_t w, std::span<const std::uint32_t> benches) {
            for (std::size_t k = 0; k < cores; ++k)
                refs[k] = refIpc[benches[k]];
            out[w] = perWorkloadThroughput(
                m, ipc.cell(policy_idx, w), refs);
        });
}

double
Campaign::mips() const
{
    if (simSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(instructions) / simSeconds / 1e6;
}

void
Campaign::save(const std::string &path) const
{
    std::ostringstream os;
    os << "wsel-campaign,v2\n";
    os << "fingerprint," << persist::toHex(fingerprint) << "\n";
    os << "simulator," << simulator << "\n";
    os << "cores," << cores << "\n";
    os << "target," << targetUops << "\n";
    os << "simseconds," << simSeconds << "\n";
    os << "instructions," << instructions << "\n";
    os << "policies,";
    for (std::size_t i = 0; i < policies.size(); ++i)
        os << (i ? ";" : "") << toString(policies[i]);
    os << "\n";
    os << "benchmarks,";
    for (std::size_t i = 0; i < benchmarks.size(); ++i)
        os << (i ? ";" : "") << benchmarks[i];
    os << "\n";
    os << "refipc,";
    os.precision(17);
    for (std::size_t i = 0; i < refIpc.size(); ++i)
        os << (i ? ";" : "") << refIpc[i];
    os << "\n";
    os << "nworkloads," << workloads.size() << "\n";
    workloads.forEach(
        [&](std::size_t, std::span<const std::uint32_t> benches) {
            os << "w,";
            for (std::size_t k = 0; k < benches.size(); ++k)
                os << (k ? ";" : "") << benches[k];
            os << "\n";
        });
    for (std::size_t p = 0; p < policies.size(); ++p) {
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            os << "i," << p << "," << w << ",";
            const auto cell = ipc.cell(p, w);
            for (std::size_t k = 0; k < cell.size(); ++k)
                os << (k ? ";" : "") << cell[k];
            os << "\n";
        }
    }
    const std::string body = os.str();
    const std::string footer =
        "footer," +
        std::to_string(policies.size() * workloads.size()) + "," +
        persist::toHex(persist::fnv1a(body)) + "\n";
    persist::atomicWriteFile(path, body + footer);
}

Campaign
Campaign::load(const std::string &path, LoadMode mode)
{
    try {
        if (persist::isV3CampaignDir(path))
            return loadV3Impl(path);
        return loadImpl(path);
    } catch (const persist::CacheInvalid &e) {
        if (mode == LoadMode::Strict)
            WSEL_FATAL("campaign file " << path << ": " << e.what());
        persist::quarantineArtifact(path, "corrupt campaign cache",
                                    e.what(), "re-simulating");
        throw;
    }
}

Campaign
runBadcoCampaign(const WorkloadSet &workloads,
                 const std::vector<PolicyKind> &policies,
                 std::uint32_t cores, std::uint64_t target_uops,
                 BadcoModelStore &store,
                 const std::vector<BenchmarkProfile> &suite,
                 const CampaignOptions &opts)
{
    if (workloads.empty() || policies.empty())
        WSEL_FATAL("campaign needs workloads and policies");
    Campaign c;
    c.simulator = "badco";
    c.cores = cores;
    c.targetUops = target_uops;
    c.policies = policies;
    for (const BenchmarkProfile &p : suite)
        c.benchmarks.push_back(p.name);
    c.workloads = workloads;
    c.fingerprint = campaignFingerprint(c.simulator, cores,
                                        target_uops, policies,
                                        suite);

    const std::vector<const BadcoModel *> models =
        store.getSuite(suite, exec::resolveJobs(opts.jobs));

    {
        UncoreConfig ref =
            UncoreConfig::forCores(cores, PolicyKind::LRU);
        BadcoMulticoreSim ref_sim(ref, 1, target_uops, opts.seed);
        c.refIpc = ref_sim.referenceIpcs(models);
    }

    c.ipc.reshape(policies.size(), workloads.size(), cores);
    auto journal =
        openJournal(opts, c, policies.size(), workloads.size());
    std::vector<UncoreConfig> ucfgs;
    ucfgs.reserve(policies.size());
    for (PolicyKind p : policies)
        ucfgs.push_back(UncoreConfig::forCores(cores, p));
    runCells(c, opts, journal.get(), "badco",
             [&](std::size_t p, std::size_t w,
                 std::uint64_t seed) -> SimResult {
                 const BadcoMulticoreSim sim(ucfgs[p], cores,
                                             target_uops, seed);
                 const Workload wl = workloads[w];
                 return sim.run(wl, models);
             });
    return c;
}

Campaign
runDetailedCampaign(const WorkloadSet &workloads,
                    const std::vector<PolicyKind> &policies,
                    std::uint32_t cores, std::uint64_t target_uops,
                    const CoreConfig &core_cfg,
                    const std::vector<BenchmarkProfile> &suite,
                    const CampaignOptions &opts)
{
    if (workloads.empty() || policies.empty())
        WSEL_FATAL("campaign needs workloads and policies");
    Campaign c;
    c.simulator = "detailed";
    c.cores = cores;
    c.targetUops = target_uops;
    c.policies = policies;
    for (const BenchmarkProfile &p : suite)
        c.benchmarks.push_back(p.name);
    c.workloads = workloads;
    c.fingerprint = campaignFingerprint(c.simulator, cores,
                                        target_uops, policies,
                                        suite);

    // Materialize each benchmark's trace chunks once, up front:
    // every cell's cursors then stream from the shared store instead
    // of re-generating the µop stream cores x cells times
    // (docs/PERFORMANCE.md).  Chunk content is a pure function of
    // the profile, so the build order across the suite is free.
    {
        TraceStore &ts = TraceStore::global();
        const unsigned jobs = exec::resolveJobs(opts.jobs);
        if (jobs <= 1 || suite.size() <= 1) {
            for (const BenchmarkProfile &p : suite)
                ts.ensureBuilt(p, target_uops);
        } else {
            exec::ThreadPool pool(std::min<std::size_t>(
                jobs, suite.size()));
            exec::parallel_for(pool, 0, suite.size(),
                               [&](std::size_t i) {
                                   ts.ensureBuilt(suite[i],
                                                  target_uops);
                               });
        }
    }

    {
        UncoreConfig ref =
            UncoreConfig::forCores(cores, PolicyKind::LRU);
        DetailedMulticoreSim ref_sim(core_cfg, ref, 1, target_uops,
                                     opts.seed);
        c.refIpc = ref_sim.referenceIpcs(suite);
    }

    c.ipc.reshape(policies.size(), workloads.size(), cores);
    auto journal =
        openJournal(opts, c, policies.size(), workloads.size());
    std::vector<UncoreConfig> ucfgs;
    ucfgs.reserve(policies.size());
    for (PolicyKind p : policies)
        ucfgs.push_back(UncoreConfig::forCores(cores, p));
    runCells(c, opts, journal.get(), "detailed",
             [&](std::size_t p, std::size_t w,
                 std::uint64_t seed) -> SimResult {
                 const DetailedMulticoreSim sim(core_cfg, ucfgs[p],
                                                cores, target_uops,
                                                seed);
                 const Workload wl = workloads[w];
                 return sim.run(wl, suite);
             });
    return c;
}

} // namespace wsel
