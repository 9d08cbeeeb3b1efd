#include "cache/prefetcher.hh"

#include <bit>
#include <cstdlib>

#include "stats/logging.hh"

namespace wsel
{

namespace
{

class NullPrefetcher : public Prefetcher
{
  public:
    void
    observe(std::uint64_t, std::uint64_t, bool,
            std::vector<std::uint64_t> &) override
    {}

    void reset() override {}
    std::string name() const override { return "none"; }
};

class NextLinePrefetcher : public Prefetcher
{
  public:
    explicit NextLinePrefetcher(std::uint32_t degree)
        : degree_(degree)
    {
        if (degree == 0)
            WSEL_FATAL("next-line prefetch degree cannot be zero");
    }

    void
    observe(std::uint64_t, std::uint64_t line_addr, bool was_miss,
            std::vector<std::uint64_t> &out) override
    {
        if (!was_miss)
            return;
        for (std::uint32_t d = 1; d <= degree_; ++d)
            out.push_back(line_addr + d);
    }

    void reset() override {}
    std::string name() const override { return "next-line"; }

  private:
    const std::uint32_t degree_;
};

class CompositePrefetcher : public Prefetcher
{
  public:
    explicit CompositePrefetcher(
        std::vector<std::unique_ptr<Prefetcher>> parts)
        : parts_(std::move(parts))
    {}

    void
    observe(std::uint64_t pc, std::uint64_t line_addr, bool was_miss,
            std::vector<std::uint64_t> &out) override
    {
        for (auto &p : parts_)
            p->observe(pc, line_addr, was_miss, out);
    }

    void
    reset() override
    {
        for (auto &p : parts_)
            p->reset();
    }

    std::string
    name() const override
    {
        std::string n = "composite(";
        for (std::size_t i = 0; i < parts_.size(); ++i) {
            if (i)
                n += "+";
            n += parts_[i]->name();
        }
        return n + ")";
    }

  private:
    std::vector<std::unique_ptr<Prefetcher>> parts_;
};

} // namespace

IpStridePrefetcher::IpStridePrefetcher(std::uint32_t entries,
                                       std::uint32_t degree)
    : entries_(entries), degree_(degree), table_(entries)
{
    if (entries == 0 || !std::has_single_bit(entries))
        WSEL_FATAL("IP-stride table size " << entries
                   << " is not a power of two");
    if (degree == 0)
        WSEL_FATAL("IP-stride degree cannot be zero");
}

void
IpStridePrefetcher::reset()
{
    table_.assign(entries_, Entry{});
}

StreamPrefetcher::StreamPrefetcher(std::uint32_t streams,
                                   std::uint32_t degree)
    : streams_(streams), degree_(degree), table_(streams)
{
    if (streams == 0 || degree == 0)
        WSEL_FATAL("stream prefetcher needs streams and degree");
}

void
StreamPrefetcher::reset()
{
    table_.assign(streams_, Slot{});
    nextVictim_ = 0;
}

std::unique_ptr<Prefetcher>
makeNextLinePrefetcher(std::uint32_t degree)
{
    return std::make_unique<NextLinePrefetcher>(degree);
}

std::unique_ptr<Prefetcher>
makeIpStridePrefetcher(std::uint32_t table_entries,
                       std::uint32_t degree)
{
    return std::make_unique<IpStridePrefetcher>(table_entries, degree);
}

std::unique_ptr<Prefetcher>
makeStreamPrefetcher(std::uint32_t streams, std::uint32_t degree)
{
    return std::make_unique<StreamPrefetcher>(streams, degree);
}

std::unique_ptr<Prefetcher>
makeCompositePrefetcher(std::vector<std::unique_ptr<Prefetcher>> parts)
{
    return std::make_unique<CompositePrefetcher>(std::move(parts));
}

std::unique_ptr<Prefetcher>
makeNullPrefetcher()
{
    return std::make_unique<NullPrefetcher>();
}

} // namespace wsel
