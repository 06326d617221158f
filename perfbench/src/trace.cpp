#include "trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

/// Innermost open span on this thread (0: none).
thread_local uint64_t tl_current = 0;

} // namespace

SpanLog::SpanLog() : epoch_(Clock::now()) {}

double
SpanLog::now() const
{
    return at(Clock::now());
}

double
SpanLog::at(Clock::time_point t) const
{
    return std::chrono::duration<double>(t - epoch_).count();
}

void
SpanLog::add(const Span &span)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(span);
}

std::vector<Span>
SpanLog::take()
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Span> out;
    out.swap(spans_);
    return out;
}

bool
SpanLog::writeChromeTrace(const std::vector<Span> &spans,
                          const std::string &path, size_t max_spans)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[";
    const size_t n = std::min(spans.size(), max_spans);
    for (size_t i = 0; i < n; ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.lane + 1)
           << ",\"ts\":" << s.start_s * 1e6
           << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
           << ",\"args\":{\"uid\":" << s.uid << ",\"parent\":" << s.parent
           << ",\"id\":" << s.trace_id << "}}";
    }
    os << "\n],\"otherData\":{\"spans_recorded\":" << spans.size()
       << ",\"spans_written\":" << n << "}}\n";
    return static_cast<bool>(os);
}

SpanScope::SpanScope(SpanLog &log, const char *name, uint64_t trace_id,
                     int lane, uint64_t parent)
{
    if (!log.enabled())
        return;
    log_ = &log;
    span_.name = name;
    span_.uid = log.newUid();
    span_.parent = parent != 0 ? parent : tl_current;
    span_.trace_id = trace_id;
    span_.lane = lane;
    saved_current_ = tl_current;
    tl_current = span_.uid;
    span_.start_s = log.now();
}

SpanScope::~SpanScope()
{
    if (log_ == nullptr)
        return;
    span_.end_s = log_->now();
    tl_current = saved_current_;
    log_->add(span_);
}

double
coveredLength(std::vector<std::pair<double, double>> intervals, double lo,
              double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = lo;
    for (auto [s, e] : intervals) {
        s = std::max(s, reach);
        e = std::min(e, hi);
        if (e > s) {
            covered += e - s;
            reach = e;
        }
    }
    return covered;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, size_t> index;
    index.reserve(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].uid, i);
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const Span &s : spans) {
        auto it = index.find(s.parent);
        if (it != index.end())
            children[it->second].emplace_back(s.start_s, s.end_s);
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const double dur = spans[i].end_s - spans[i].start_s;
        self[i] = dur - coveredLength(std::move(children[i]), spans[i].start_s,
                                      spans[i].end_s);
    }
    return self;
}

} // namespace perfbench
