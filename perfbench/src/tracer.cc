#include "tracer.hh"

#include <algorithm>

namespace perfbench
{

namespace
{

struct Frame
{
    const char *layer;
    bool wait;
    Clock::time_point segStart;
};

thread_local std::vector<Frame> tStack;

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Tracer::Span::Span(Tracer &t, const char *layer, bool wait)
    : tracer_(t), start_(Clock::now())
{
    if (!tStack.empty()) {
        Frame &top = tStack.back();
        tracer_.emit({top.layer, top.wait, top.segStart, start_});
    }
    tStack.push_back({layer, wait, start_});
}

Tracer::Span::~Span()
{
    const Clock::time_point now = Clock::now();
    const Frame top = tStack.back();
    tStack.pop_back();
    tracer_.emit({top.layer, top.wait, top.segStart, now});
    if (!tStack.empty())
        tStack.back().segStart = now;
}

void
Tracer::emit(const Segment &s)
{
    if (s.end <= s.begin)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    segments_.push_back(s);
}

std::map<std::string, double>
Tracer::attribute() const
{
    std::vector<Segment> segs;
    {
        std::lock_guard<std::mutex> lock(mu_);
        segs = segments_;
    }
    // Sweep the segment boundaries in time order, keeping the set of
    // open segments; each elementary interval is shared by the open
    // working segments, or by the open waits when nobody works.
    struct Event
    {
        Clock::time_point at;
        bool open;
        std::size_t seg;
    };
    std::vector<Event> ev;
    ev.reserve(2 * segs.size());
    for (std::size_t i = 0; i < segs.size(); ++i) {
        ev.push_back({segs[i].begin, true, i});
        ev.push_back({segs[i].end, false, i});
    }
    std::sort(ev.begin(), ev.end(), [](const Event &a, const Event &b) {
        if (a.at != b.at)
            return a.at < b.at;
        return !a.open && b.open; // close before open at a tie
    });

    std::map<std::string, double> out;
    std::vector<std::size_t> open;
    for (std::size_t e = 0; e < ev.size(); ++e) {
        if (e > 0 && !open.empty()) {
            const double dt = std::chrono::duration<double>(
                                  ev[e].at - ev[e - 1].at)
                                  .count();
            std::size_t work = 0;
            for (std::size_t i : open)
                work += segs[i].wait ? 0 : 1;
            const bool waitsOnly = work == 0;
            const double share =
                dt / static_cast<double>(waitsOnly ? open.size()
                                                   : work);
            for (std::size_t i : open)
                if (segs[i].wait == waitsOnly)
                    out[segs[i].layer] += share;
        }
        if (ev[e].open)
            open.push_back(ev[e].seg);
        else
            open.erase(std::find(open.begin(), open.end(), ev[e].seg));
    }
    return out;
}

} // namespace perfbench
