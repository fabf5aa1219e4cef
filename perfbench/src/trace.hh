/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are recorded from the benchmark's own code around each call
 * into a simulator layer: name, start, end and the enclosing span.
 * They stay in memory and are written once, at exit, as Chrome
 * trace-event JSON (opens in Perfetto / chrome://tracing). A layer's
 * self time is its span time minus the time its child spans cover.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

class Tracer
{
  public:
    explicit Tracer(std::string run_id);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** RAII span: open on construction, closed on destruction. Spans
     *  nest by scope; the enclosing open span is the parent. */
    class Span
    {
      public:
        Span(Tracer &tracer, const char *name);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &tracer;
        std::size_t index;
    };

    /** Durations in seconds of every span called @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Summed duration / self time of the spans called @p name. */
    double total(const std::string &name) const;
    double self(const std::string &name) const;

    /** Distinct span names in first-seen order. */
    std::vector<std::string> names() const;

    /** Print "name count total self" rows to stdout. */
    void printSummary() const;

    /** Write the Chrome trace-event document; false on I/O error. */
    bool writeChrome(const std::string &path) const;

  private:
    struct Record
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int64_t parent;  //!< index, -1 for a root span
    };

    std::int64_t nowNs() const;

    std::string runId;
    Clock::time_point origin;
    std::vector<Record> spans;
    std::vector<std::size_t> open;
};

/** Print the span summary and write the trace file of @p opt. */
void finishTrace(const Tracer &tracer, const RunOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
