/**
 * @file
 * Hardware prefetchers: next-line, IP-based stride, and stream.
 *
 * Table I/II of the paper attach a next-line + IP-stride prefetcher
 * to the L1s and an IP-stride + stream prefetcher to the LLC. A
 * prefetcher observes demand accesses and proposes line addresses to
 * fetch; the owning cache level issues them.
 *
 * The L1s hold their prefetchers through the Prefetcher interface.
 * The uncore holds the ip-stride and stream engines as concrete
 * final objects, so its per-access observe() calls dispatch
 * statically and inline.
 */

#ifndef WSEL_CACHE_PREFETCHER_HH
#define WSEL_CACHE_PREFETCHER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace wsel
{

/**
 * Prefetcher interface. Addresses are line addresses (byte address
 * divided by the line size) so proposals are line-granular.
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Observe a demand access and append prefetch proposals.
     *
     * @param pc Program counter of the access (0 if unknown).
     * @param line_addr Line address accessed.
     * @param was_miss Whether the demand access missed.
     * @param out Receives proposed line addresses.
     */
    virtual void observe(std::uint64_t pc, std::uint64_t line_addr,
                         bool was_miss,
                         std::vector<std::uint64_t> &out) = 0;

    /** Clear learned state. */
    virtual void reset() = 0;

    /** Diagnostic name. */
    virtual std::string name() const = 0;
};

/**
 * Classic IP-indexed stride prefetcher with 2-bit confidence.
 */
class IpStridePrefetcher final : public Prefetcher
{
  public:
    /**
     * @param entries Tracking-table size (power of two).
     * @param degree Lines prefetched ahead once confident.
     */
    IpStridePrefetcher(std::uint32_t entries, std::uint32_t degree);

    void
    observe(std::uint64_t pc, std::uint64_t line_addr, bool,
            std::vector<std::uint64_t> &out) override
    {
        if (pc == 0)
            return;
        Entry &e = table_[(pc >> 2) & (entries_ - 1)];
        if (e.pc != pc) {
            e.pc = pc;
            e.lastLine = line_addr;
            e.stride = 0;
            e.confidence = 0;
            return;
        }
        const std::int64_t stride =
            static_cast<std::int64_t>(line_addr) -
            static_cast<std::int64_t>(e.lastLine);
        if (stride == e.stride && stride != 0) {
            if (e.confidence < 3)
                ++e.confidence;
        } else {
            e.stride = stride;
            e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
        }
        e.lastLine = line_addr;
        if (e.confidence >= 2 && e.stride != 0) {
            for (std::uint32_t d = 1; d <= degree_; ++d) {
                const std::int64_t target =
                    static_cast<std::int64_t>(line_addr) +
                    e.stride * static_cast<std::int64_t>(d);
                if (target > 0)
                    out.push_back(static_cast<std::uint64_t>(target));
            }
        }
    }

    void reset() override;
    std::string name() const override { return "ip-stride"; }

  private:
    struct Entry
    {
        std::uint64_t pc = 0;
        std::uint64_t lastLine = 0;
        std::int64_t stride = 0;
        std::uint8_t confidence = 0;
    };

    std::uint32_t entries_;
    std::uint32_t degree_;
    std::vector<Entry> table_;
};

/**
 * Stream prefetcher: detects ascending or descending line streams
 * near recent misses and runs degree lines ahead.
 */
class StreamPrefetcher final : public Prefetcher
{
  public:
    /**
     * @param streams Number of concurrently tracked streams.
     * @param degree Prefetch distance in lines.
     */
    StreamPrefetcher(std::uint32_t streams, std::uint32_t degree);

    void
    observe(std::uint64_t, std::uint64_t line_addr, bool was_miss,
            std::vector<std::uint64_t> &out) override
    {
        if (!was_miss)
            return;
        // Look for a stream this miss extends.
        for (Slot &s : table_) {
            if (!s.live)
                continue;
            const std::int64_t delta =
                static_cast<std::int64_t>(line_addr) -
                static_cast<std::int64_t>(s.lastLine);
            if (delta == s.dir) {
                // Confirmed continuation: run ahead.
                s.lastLine = line_addr;
                ++s.confidence;
                for (std::uint32_t d = 1; d <= degree_; ++d) {
                    const std::int64_t target =
                        static_cast<std::int64_t>(line_addr) +
                        s.dir * static_cast<std::int64_t>(d);
                    if (target > 0)
                        out.push_back(
                            static_cast<std::uint64_t>(target));
                }
                return;
            }
            if (delta == 2 * s.dir) {
                // One line was skipped (e.g. already prefetched).
                s.lastLine = line_addr;
                return;
            }
        }
        // Try to pair with a trainee.
        for (Slot &s : table_) {
            if (!s.training)
                continue;
            const std::int64_t delta =
                static_cast<std::int64_t>(line_addr) -
                static_cast<std::int64_t>(s.lastLine);
            if (delta == 1 || delta == -1) {
                s.live = true;
                s.training = false;
                s.dir = delta;
                s.lastLine = line_addr;
                s.confidence = 1;
                return;
            }
        }
        // Allocate a trainee, replacing the stalest slot.
        Slot &victim = table_[nextVictim_];
        nextVictim_ = (nextVictim_ + 1) % streams_;
        victim = Slot{};
        victim.training = true;
        victim.lastLine = line_addr;
    }

    void reset() override;
    std::string name() const override { return "stream"; }

  private:
    struct Slot
    {
        bool live = false;
        bool training = false;
        std::int64_t dir = 0;
        std::uint64_t lastLine = 0;
        std::uint32_t confidence = 0;
    };

    std::uint32_t streams_;
    std::uint32_t degree_;
    std::vector<Slot> table_;
    std::uint32_t nextVictim_ = 0;
};

/** Always proposes the next sequential line on a miss. */
std::unique_ptr<Prefetcher> makeNextLinePrefetcher(
    std::uint32_t degree = 1);

/** A heap-allocated IpStridePrefetcher. */
std::unique_ptr<Prefetcher> makeIpStridePrefetcher(
    std::uint32_t table_entries = 64, std::uint32_t degree = 2);

/** A heap-allocated StreamPrefetcher. */
std::unique_ptr<Prefetcher> makeStreamPrefetcher(
    std::uint32_t streams = 8, std::uint32_t degree = 2);

/** Composite prefetcher running several engines in sequence. */
std::unique_ptr<Prefetcher> makeCompositePrefetcher(
    std::vector<std::unique_ptr<Prefetcher>> parts);

/** No-op prefetcher. */
std::unique_ptr<Prefetcher> makeNullPrefetcher();

} // namespace wsel

#endif // WSEL_CACHE_PREFETCHER_HH
