/**
 * @file
 * Span recorder for the benchmark's traced runs.  Spans are opened
 * by the benchmark around its own calls into the library's layers;
 * nothing inside src/ is instrumented.
 *
 * Each thread keeps a stack of open spans and emits *segments*: the
 * stretches of time in which a span is the innermost open one on its
 * thread.  Segments therefore never overlap on one thread, and a
 * layer's self time is the sum of its segments.  attribute() turns
 * the segments of all threads into wall-clock shares: at every
 * instant the wall time is split evenly over the working segments
 * then open, and a "wait" segment (a thread blocked on a pool) only
 * receives time while no thread is working.  The shares sum to the
 * wall time the spans cover, which makes them comparable with the
 * untraced run's wall clock even when layers run in parallel.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

class Tracer
{
  public:
    /** RAII span: innermost-first attribution on its thread. */
    class Span
    {
      public:
        Span(Tracer &t, const char *layer, bool wait = false);
        ~Span();

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        /** Seconds since the span opened (its total, not self). */
        double elapsed() const { return secondsSince(start_); }

      private:
        Tracer &tracer_;
        Clock::time_point start_;
    };

    /** Wall seconds per layer, parallel time split as above. */
    std::map<std::string, double> attribute() const;

  private:
    struct Segment
    {
        const char *layer;
        bool wait;
        Clock::time_point begin;
        Clock::time_point end;
    };

    void emit(const Segment &s);

    mutable std::mutex mu_;
    std::vector<Segment> segments_; ///< guarded by mu_
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
