#include "obs/trace.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

#include "obs/metrics.hh"
#include "stats/logging.hh"

namespace wsel::obs
{

namespace detail
{

std::atomic<bool> gTraceEnabled{false};

} // namespace detail

namespace
{

/** Every event in one process shares this pid in the JSON. */
constexpr std::uint64_t kPid = 1;

std::uint64_t
nowNs()
{
    // One steady epoch per process so timestamps from all threads
    // share a timeline.
    static const std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

std::uint32_t
threadId()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

/** Fixed-capacity drop-oldest ring, one per process. */
struct Ring
{
    std::mutex mu;
    std::vector<TraceEvent> buf;
    std::size_t start = 0; ///< index of the oldest event
    std::size_t size = 0;
    std::uint64_t dropped = 0;

    void
    reset(std::size_t capacity)
    {
        std::lock_guard<std::mutex> g(mu);
        buf.assign(capacity, TraceEvent{});
        start = 0;
        size = 0;
        dropped = 0;
    }

    void
    push(TraceEvent e)
    {
        bool drop = false;
        {
            std::lock_guard<std::mutex> g(mu);
            if (buf.empty())
                return;
            if (size < buf.size()) {
                buf[(start + size) % buf.size()] = std::move(e);
                ++size;
            } else {
                buf[start] = std::move(e);
                start = (start + 1) % buf.size();
                ++dropped;
                drop = true;
            }
        }
        if (drop) {
            // Surface drops in the metrics snapshot even when the
            // collection gate is off: a truncated trace must be
            // detectable from its companion metrics file.
            static Counter &dropCounter = counter("trace.dropped");
            dropCounter.incAlways();
        }
    }

    TraceSnapshot
    snapshot()
    {
        TraceSnapshot snap;
        std::lock_guard<std::mutex> g(mu);
        snap.events.reserve(size);
        for (std::size_t i = 0; i < size; ++i)
            snap.events.push_back(buf[(start + i) % buf.size()]);
        snap.dropped = dropped;
        return snap;
    }
};

Ring &
ring()
{
    // Deliberately leaked: the trace is exported from static
    // destructors (bench ObsSession flushes at exit), so the ring
    // must outlive every other static in the process.
    static Ring *r = new Ring;
    return *r;
}

thread_local std::vector<const char *> spanStack;

} // namespace

void
enableTracing(std::size_t capacity)
{
    capacity = std::clamp<std::size_t>(capacity, 16, 1ULL << 22);
    ring().reset(capacity);
    detail::gTraceEnabled.store(true, std::memory_order_relaxed);
}

void
disableTracing()
{
    detail::gTraceEnabled.store(false, std::memory_order_relaxed);
}

void
emitEvent(char ph, std::string name, std::string args)
{
    if (!tracingEnabled())
        return;
    TraceEvent e;
    e.name = std::move(name);
    e.args = std::move(args);
    e.tsNs = nowNs();
    e.tid = threadId();
    e.ph = ph;
    ring().push(std::move(e));
}

void
instant(std::string name, std::string args)
{
    emitEvent('i', std::move(name), std::move(args));
}

std::size_t
spanDepth()
{
    return spanStack.size();
}

Span::Span(const char *name, std::string args)
    : name_(name), active_(tracingEnabled())
{
    if (!active_)
        return;
    spanStack.push_back(name_);
    emitEvent('B', name_, std::move(args));
}

Span::~Span()
{
    if (!active_)
        return;
    // Pop our frame even if tracing was switched off mid-span so
    // the stack cannot leak; only emit the E edge while enabled.
    if (!spanStack.empty() && spanStack.back() == name_)
        spanStack.pop_back();
    emitEvent('E', name_);
}

TraceSnapshot
traceSnapshot()
{
    return ring().snapshot();
}

std::string
renderChromeTrace(const TraceSnapshot &snap)
{
    // Events are stored in arrival order per the ring; the viewers
    // want ascending timestamps.
    std::vector<const TraceEvent *> order;
    order.reserve(snap.events.size());
    for (const TraceEvent &e : snap.events)
        order.push_back(&e);
    std::stable_sort(order.begin(), order.end(),
                     [](const TraceEvent *a, const TraceEvent *b) {
                         return a->tsNs < b->tsNs;
                     });
    std::ostringstream os;
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < order.size(); ++i) {
        const TraceEvent &e = *order[i];
        char ts[40];
        std::snprintf(ts, sizeof ts, "%.3f", e.tsNs / 1e3);
        os << "{\"name\":\"" << detail::jsonEscape(e.name)
           << "\",\"cat\":\"wsel\",\"ph\":\"" << e.ph
           << "\",\"pid\":" << kPid << ",\"tid\":" << e.tid
           << ",\"ts\":" << ts;
        if (!e.args.empty()) {
            // Scope markers ('s'/'t') aside, "i" events require a
            // scope field; default it to thread.
            os << ",\"args\":{\"detail\":\""
               << detail::jsonEscape(e.args) << "\"}";
        }
        if (e.ph == 'i')
            os << ",\"s\":\"t\"";
        os << "}" << (i + 1 < order.size() ? "," : "") << "\n";
    }
    os << "],\"displayTimeUnit\":\"ns\",\"otherData\":{"
          "\"dropped\":\""
       << snap.dropped << "\"}}\n";
    return os.str();
}

void
writeChromeTrace(const std::string &path)
{
    const std::string json = renderChromeTrace(traceSnapshot());
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        WSEL_FATAL("cannot open trace output '" << path
                                                << "' for writing");
    os.write(json.data(),
             static_cast<std::streamsize>(json.size()));
    os.flush();
    if (!os)
        WSEL_FATAL("write to trace output '" << path
                                             << "' failed");
}

// -------------------------------------------------------------------
// Minimal trace-event JSON reader
// -------------------------------------------------------------------

namespace
{

/** Cursor over the JSON text with WSEL_FATAL diagnostics. */
class JsonCursor
{
  public:
    explicit JsonCursor(const std::string &text) : text_(text) {}

    void
    skipWs()
    {
        while (at_ < text_.size() &&
               (text_[at_] == ' ' || text_[at_] == '\n' ||
                text_[at_] == '\t' || text_[at_] == '\r'))
            ++at_;
    }

    char
    peek()
    {
        skipWs();
        if (at_ >= text_.size())
            WSEL_FATAL("trace JSON: unexpected end of input");
        return text_[at_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            WSEL_FATAL("trace JSON: expected '"
                       << c << "' at offset " << at_ << ", got '"
                       << text_[at_] << "'");
        ++at_;
    }

    bool
    consume(char c)
    {
        if (at_ < text_.size() && peek() == c) {
            ++at_;
            return true;
        }
        return false;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (at_ >= text_.size())
                WSEL_FATAL("trace JSON: unterminated string");
            char c = text_[at_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (at_ >= text_.size())
                    WSEL_FATAL("trace JSON: bad escape");
                const char esc = text_[at_++];
                switch (esc) {
                  case 'n':
                    out += '\n';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 'u': {
                    if (at_ + 4 > text_.size())
                        WSEL_FATAL("trace JSON: bad \\u escape");
                    unsigned v = 0;
                    for (int k = 0; k < 4; ++k) {
                        const char d = text_[at_++];
                        v <<= 4;
                        if (d >= '0' && d <= '9')
                            v |= static_cast<unsigned>(d - '0');
                        else if (d >= 'a' && d <= 'f')
                            v |= static_cast<unsigned>(d - 'a' +
                                                       10);
                        else if (d >= 'A' && d <= 'F')
                            v |= static_cast<unsigned>(d - 'A' +
                                                       10);
                        else
                            WSEL_FATAL(
                                "trace JSON: bad \\u escape");
                    }
                    out += static_cast<char>(v & 0xff);
                    break;
                  }
                  default:
                    out += esc; // covers \" \\ \/
                }
            } else {
                out += c;
            }
        }
    }

    double
    parseNumber()
    {
        skipWs();
        const std::size_t begin = at_;
        while (at_ < text_.size() &&
               (std::isdigit(
                    static_cast<unsigned char>(text_[at_])) ||
                text_[at_] == '-' || text_[at_] == '+' ||
                text_[at_] == '.' || text_[at_] == 'e' ||
                text_[at_] == 'E'))
            ++at_;
        if (at_ == begin)
            WSEL_FATAL("trace JSON: expected number at offset "
                       << at_);
        try {
            return std::stod(text_.substr(begin, at_ - begin));
        } catch (const std::exception &) {
            WSEL_FATAL("trace JSON: malformed number '"
                       << text_.substr(begin, at_ - begin) << "'");
        }
    }

    /** Skip one value: string, number, or flat object. */
    void
    skipValue()
    {
        const char c = peek();
        if (c == '"') {
            parseString();
        } else if (c == '{') {
            expect('{');
            if (!consume('}')) {
                do {
                    parseString();
                    expect(':');
                    skipValue();
                } while (consume(','));
                expect('}');
            }
        } else {
            parseNumber();
        }
    }

    std::size_t offset() const { return at_; }

    bool
    find(std::string_view needle)
    {
        const std::size_t pos = text_.find(needle, at_);
        if (pos == std::string::npos)
            return false;
        at_ = pos + needle.size();
        return true;
    }

  private:
    const std::string &text_;
    std::size_t at_ = 0;
};

} // namespace

std::vector<ParsedTraceEvent>
parseChromeTrace(const std::string &json)
{
    JsonCursor cur(json);
    if (!cur.find("\"traceEvents\""))
        WSEL_FATAL("trace JSON: no \"traceEvents\" key");
    cur.expect(':');
    cur.expect('[');
    std::vector<ParsedTraceEvent> out;
    if (cur.consume(']'))
        return out;
    do {
        cur.expect('{');
        ParsedTraceEvent ev;
        bool sawName = false, sawPh = false, sawTs = false;
        if (!cur.consume('}')) {
            do {
                const std::string key = cur.parseString();
                cur.expect(':');
                if (key == "name") {
                    ev.name = cur.parseString();
                    sawName = true;
                } else if (key == "ph") {
                    const std::string ph = cur.parseString();
                    if (ph.size() != 1)
                        WSEL_FATAL("trace JSON: bad ph '" << ph
                                                          << "'");
                    ev.ph = ph[0];
                    sawPh = true;
                } else if (key == "pid") {
                    ev.pid = static_cast<std::uint64_t>(
                        cur.parseNumber());
                } else if (key == "tid") {
                    ev.tid = static_cast<std::uint64_t>(
                        cur.parseNumber());
                } else if (key == "ts") {
                    ev.tsUs = cur.parseNumber();
                    sawTs = true;
                } else {
                    cur.skipValue();
                }
            } while (cur.consume(','));
            cur.expect('}');
        }
        if (!sawName || !sawPh || !sawTs)
            WSEL_FATAL("trace JSON: event missing name/ph/ts near "
                       "offset "
                       << cur.offset());
        out.push_back(std::move(ev));
    } while (cur.consume(','));
    cur.expect(']');
    return out;
}

} // namespace wsel::obs
