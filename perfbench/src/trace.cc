#include "trace.hh"

#include <cstdio>
#include <fstream>
#include <set>

namespace perfbench
{

Tracer::Tracer(std::string run_id)
    : runId(std::move(run_id)), origin(Clock::now())
{
    spans.reserve(1 << 16);
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

Tracer::Span::Span(Tracer &tracer, const char *name)
    : tracer(tracer), index(tracer.spans.size())
{
    const std::int64_t parent =
        tracer.open.empty() ? -1
                            : static_cast<std::int64_t>(tracer.open.back());
    tracer.spans.push_back({name, tracer.nowNs(), 0, parent});
    tracer.open.push_back(index);
}

Tracer::Span::~Span()
{
    tracer.spans[index].endNs = tracer.nowNs();
    tracer.open.pop_back();
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Record &r : spans)
        if (name == r.name)
            out.push_back(static_cast<double>(r.endNs - r.startNs) * 1e-9);
    return out;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0;
    for (double d : durations(name))
        sum += d;
    return sum;
}

double
Tracer::self(const std::string &name) const
{
    // Children lie inside their parent and do not overlap (one thread),
    // so the covered part of a parent is the sum of its children.
    std::int64_t self_ns = 0;
    for (const Record &r : spans)
        if (name == r.name)
            self_ns += r.endNs - r.startNs;
    for (const Record &r : spans)
        if (r.parent >= 0 && name == spans[r.parent].name)
            self_ns -= r.endNs - r.startNs;
    return static_cast<double>(self_ns) * 1e-9;
}

std::vector<std::string>
Tracer::names() const
{
    std::vector<std::string> out;
    std::set<std::string> seen;
    for (const Record &r : spans)
        if (seen.insert(r.name).second)
            out.emplace_back(r.name);
    return out;
}

void
Tracer::printSummary() const
{
    std::printf("%-22s %8s %12s %12s\n", "span", "count", "total_s",
                "self_s");
    for (const std::string &name : names())
        std::printf("%-22s %8zu %12.6f %12.6f\n", name.c_str(),
                    durations(name).size(), total(name), self(name));
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"run\":\"" << runId
        << "\"},\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Record &r = spans[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"id\":%zu,\"parent\":%lld}}",
                      i ? "," : "", r.name,
                      static_cast<double>(r.startNs) / 1e3,
                      static_cast<double>(r.endNs - r.startNs) / 1e3, i,
                      static_cast<long long>(r.parent));
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

void
finishTrace(const Tracer &tracer, const RunOptions &opt)
{
    tracer.printSummary();
    if (opt.tracePath.empty())
        return;
    if (tracer.writeChrome(opt.tracePath))
        std::printf("trace written to %s\n", opt.tracePath.c_str());
    else
        std::fprintf(stderr, "cannot write trace %s\n",
                     opt.tracePath.c_str());
}

} // namespace perfbench
