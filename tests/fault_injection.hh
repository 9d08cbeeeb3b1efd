/**
 * @file
 * Deterministic fault injection for the persistence layer.
 *
 * The production code in stats/persist.hh calls
 * persist::faultPoint("name") at each kill-point (atomic write
 * about to rename, population cell about to run, ...).  Tests install a
 * hook that throws InjectedFault at a chosen point and hit count,
 * simulating a process killed exactly there: the stack unwinds
 * without running any of the persistence code that would have
 * followed, just like a real SIGKILL, while RAII keeps the test
 * process itself healthy.  File-corruption helpers (truncate at
 * byte K, flip a bit) complete the harness.
 *
 * Kill-points currently emitted by the production code:
 *  - "atomic.begin" / "atomic.before-rename" /
 *    "atomic.after-rename": around atomicWriteFile's
 *    write-tmp-then-rename sequence (for a campaign shard:
 *    simulated but not yet written / durable);
 *  - "population.cell": one (row, policy) BADCO cell of a shard
 *    about to run, in population and explicit-list campaigns alike
 *    (src/sim/population.cc);
 *  - "adaptive.cell": one (workload, policy) cell of a sequential
 *    adaptive batch simulated (src/sim/adaptive.cc);
 *  - "serve.shard-start" / "serve.shard-committed": a worker
 *    process accepted a shard lease / durably committed the shard
 *    to the result store (src/serve/worker.cc);
 *  - "fidelity.escalate": one detailed cell about to run: an
 *    escalated cell of a mixed-fidelity campaign
 *    (src/sim/hybrid.cc), or a cell of a detailed shard
 *    (src/sim/population.cc: detailed campaigns and distributed
 *    escalation).
 *
 * The serve tests escalate from exceptions to real SIGKILL:
 * wsel_worker arms these same points from WSEL_KILL_POINT=
 * "point:nth" (optionally gated to one shard by WSEL_KILL_SHARD)
 * and raises SIGKILL at the hit, so whole-process crash recovery
 * is exercised with genuine process death (docs/ROBUSTNESS.md,
 * "Distributed campaigns").
 */

#ifndef WSEL_TESTS_FAULT_INJECTION_HH
#define WSEL_TESTS_FAULT_INJECTION_HH

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "stats/persist.hh"

namespace wsel::test
{

/** Thrown at an armed kill-point; simulates a crash at that spot. */
class InjectedFault : public std::runtime_error
{
  public:
    explicit InjectedFault(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * RAII fault plan: arms one kill-point for the lifetime of the
 * object and disarms (and resets hit counters) on destruction.
 * With nth == 0 the point never fires but hits are still counted,
 * which lets tests observe how often the persistence layer passed
 * a point (e.g. how many cells a resumed run simulated).
 */
class FaultInjector
{
  public:
    FaultInjector(std::string point, std::uint64_t nth)
    {
        persist::resetFaultPoints();
        persist::setFaultHook(
            [point = std::move(point), nth](const char *p,
                                            std::uint64_t hits) {
                if (nth != 0 && point == p && hits == nth)
                    throw InjectedFault(
                        std::string("injected fault at ") + p +
                        " #" + std::to_string(hits));
            });
    }

    /** Count hits on every point without ever firing. */
    FaultInjector() : FaultInjector("", 0) {}

    ~FaultInjector()
    {
        persist::setFaultHook(nullptr);
        persist::resetFaultPoints();
    }

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Hits recorded on @p point since this injector was armed. */
    std::uint64_t
    hits(const char *point) const
    {
        return persist::faultPointHits(point);
    }
};

/** Truncate @p path to @p size bytes. */
inline void
truncateFile(const std::string &path, std::uint64_t size)
{
    std::filesystem::resize_file(path, size);
}

/** Flip one bit of the byte at @p offset in @p path. */
inline void
flipBit(const std::string &path, std::uint64_t offset,
        unsigned bit = 0)
{
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.get(c);
    c = static_cast<char>(c ^ (1u << (bit & 7)));
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(c);
}

/** Size of @p path in bytes. */
inline std::uint64_t
fileSize(const std::string &path)
{
    return std::filesystem::file_size(path);
}

/** Read a whole file into a string. */
inline std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::string s((std::istreambuf_iterator<char>(is)),
                  std::istreambuf_iterator<char>());
    return s;
}

} // namespace wsel::test

#endif // WSEL_TESTS_FAULT_INJECTION_HH
