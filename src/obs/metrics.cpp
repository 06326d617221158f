#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <locale>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/logging.h"

namespace mirage {
namespace obs {

namespace {

/// -1 = uninitialized (read MIRAGE_OBS on first query), else 0/1.
std::atomic<int> g_enabled{-1};

/** MIRAGE_OBS as parsed, default on; an unknown value warns. */
bool
envEnabled()
{
    const char *env = std::getenv("MIRAGE_OBS");
    if (env == nullptr)
        return true;
    std::string error;
    const std::optional<bool> on = parseObsEnv(env, &error);
    // A typo such as MIRAGE_OBS=of used to leave recording on without a
    // word. Be loud about it.
    if (!on)
        MIRAGE_WARN("ignoring MIRAGE_OBS=\"", env, "\" (", error,
                    "); metric recording stays on");
    return on.value_or(true);
}

} // namespace

std::optional<bool>
parseObsEnv(const char *value, std::string *error)
{
    std::string v = value != nullptr ? value : "";
    const size_t first = v.find_first_not_of(" \t");
    v = first == std::string::npos
            ? ""
            : v.substr(first, v.find_last_not_of(" \t") - first + 1);
    if (v == "0" || v == "false" || v == "off")
        return false;
    if (v == "1" || v == "true" || v == "on")
        return true;
    if (error != nullptr)
        *error = v.empty() ? "empty value"
                           : "expected 0/false/off or 1/true/on";
    return std::nullopt;
}

bool
enabled()
{
    int state = g_enabled.load(std::memory_order_relaxed);
    if (state < 0) {
        int init = envEnabled() ? 1 : 0;
        int expected = -1;
        // First caller wins; a concurrent setEnabled() is preserved.
        g_enabled.compare_exchange_strong(expected, init,
                                          std::memory_order_relaxed);
        state = g_enabled.load(std::memory_order_relaxed);
    }
    return state != 0;
}

void
setEnabled(bool on)
{
    g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

namespace detail {

size_t
threadShard()
{
    static std::atomic<size_t> next{0};
    thread_local const size_t shard =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return shard;
}

} // namespace detail

// ---------------------------------------------------------------------------
// Counter

uint64_t
Counter::value() const
{
    uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard.v.load(std::memory_order_relaxed);
    return total;
}

void
Counter::reset()
{
    for (auto &shard : shards_)
        shard.v.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram

int
Histogram::bucketIndex(uint64_t value)
{
    if (value < static_cast<uint64_t>(kSub))
        return static_cast<int>(value);
    const int msb = 63 - std::countl_zero(value);
    const int shift = msb - kSubBits;
    const int sub = static_cast<int>((value >> shift) & (kSub - 1));
    return ((msb - kSubBits + 1) << kSubBits) + sub;
}

void
Histogram::bucketBounds(int index, double *low, double *high)
{
    MIRAGE_DASSERT(index >= 0 && index < kBuckets, "bucket index range");
    if (index < kSub) {
        *low = index;
        *high = index + 1;
        return;
    }
    const int octave = index >> kSubBits; // >= 1
    const int sub = index & (kSub - 1);
    const int msb = octave + kSubBits - 1;
    const double width = std::ldexp(1.0, msb - kSubBits);
    *low = std::ldexp(1.0, msb) + sub * width;
    *high = *low + width;
}

void
Histogram::aggregate(uint64_t *out) const
{
    std::fill(out, out + kBuckets, 0);
    for (const auto &shard : shards_)
        for (int b = 0; b < kBuckets; ++b)
            out[b] += shard.buckets[b].load(std::memory_order_relaxed);
}

uint64_t
Histogram::count() const
{
    uint64_t total = 0;
    for (const auto &shard : shards_)
        for (int b = 0; b < kBuckets; ++b)
            total += shard.buckets[b].load(std::memory_order_relaxed);
    return total;
}

namespace {

double
bucketMidpoint(int index)
{
    double lo = 0.0;
    double hi = 0.0;
    Histogram::bucketBounds(index, &lo, &hi);
    return lo + (hi - lo) * 0.5;
}

/** Nearest-rank quantile over aggregated buckets: the value whose
 *  cumulative count first reaches ceil(q * count) — the same rank
 *  convention as serve::ServerStats' exact sorted-sample percentile, so
 *  the two can be cross-checked on identical samples. */
double
bucketQuantile(const uint64_t *buckets, uint64_t count, double q)
{
    if (count == 0)
        return 0.0;
    uint64_t rank = static_cast<uint64_t>(std::ceil(q * count));
    rank = std::clamp<uint64_t>(rank, 1, count);
    uint64_t seen = 0;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
        seen += buckets[b];
        if (seen >= rank)
            return bucketMidpoint(b);
    }
    return bucketMidpoint(Histogram::kBuckets - 1);
}

} // namespace

HistogramSnapshot
Histogram::snapshot() const
{
    std::vector<uint64_t> buckets(kBuckets, 0);
    aggregate(buckets.data());

    HistogramSnapshot snap;
    uint64_t sum = 0;
    for (const auto &shard : shards_)
        sum += shard.sum.load(std::memory_order_relaxed);
    int lowest = -1;
    int highest = -1;
    for (int b = 0; b < kBuckets; ++b) {
        if (buckets[b] == 0)
            continue;
        snap.count += buckets[b];
        if (lowest < 0)
            lowest = b;
        highest = b;
    }
    snap.sum = static_cast<double>(sum);
    if (snap.count == 0)
        return snap;
    snap.mean = snap.sum / static_cast<double>(snap.count);
    double hi = 0.0;
    bucketBounds(lowest, &snap.min, &hi);
    snap.max = bucketMidpoint(highest);
    snap.p50 = bucketQuantile(buckets.data(), snap.count, 0.50);
    snap.p95 = bucketQuantile(buckets.data(), snap.count, 0.95);
    snap.p99 = bucketQuantile(buckets.data(), snap.count, 0.99);
    return snap;
}

void
Histogram::reset()
{
    for (auto &shard : shards_) {
        for (int b = 0; b < kBuckets; ++b)
            shard.buckets[b].store(0, std::memory_order_relaxed);
        shard.sum.store(0, std::memory_order_relaxed);
    }
}

// ---------------------------------------------------------------------------
// MetricsRegistry

struct MetricsRegistry::Impl
{
    mutable std::mutex mu;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry &
MetricsRegistry::global()
{
    // Leaked: recording must stay safe from detached threads and static
    // destructors (same lifetime policy as ThreadPool::global()).
    static MetricsRegistry *registry = new MetricsRegistry();
    return *registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto &slot = impl_->counters[name];
    if (!slot)
        slot = std::make_unique<Counter>(name);
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto &slot = impl_->gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>(name);
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto &slot = impl_->histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>(name);
    return *slot;
}

const Counter *
MetricsRegistry::findCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->counters.find(name);
    return it == impl_->counters.end() ? nullptr : it->second.get();
}

const Gauge *
MetricsRegistry::findGauge(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->gauges.find(name);
    return it == impl_->gauges.end() ? nullptr : it->second.get();
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->histograms.find(name);
    return it == impl_->histograms.end() ? nullptr : it->second.get();
}

namespace {

std::string
promName(const std::string &dotted)
{
    std::string out = "mirage_";
    for (char c : dotted) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9');
        out.push_back(ok ? c : '_');
    }
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/// %g-style formatting that never emits locale-dependent separators.
std::string
fmtDouble(double v)
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os.precision(12);
    os << v;
    return os.str();
}

} // namespace

void
MetricsRegistry::renderText(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const auto &[name, c] : impl_->counters) {
        const std::string p = promName(name);
        os << "# TYPE " << p << " counter\n";
        os << p << " " << c->value() << "\n";
    }
    for (const auto &[name, g] : impl_->gauges) {
        const std::string p = promName(name);
        os << "# TYPE " << p << " gauge\n";
        os << p << " " << g->value() << "\n";
    }
    std::vector<uint64_t> buckets(Histogram::kBuckets, 0);
    for (const auto &[name, h] : impl_->histograms) {
        const std::string p = promName(name);
        os << "# TYPE " << p << " histogram\n";
        h->aggregate(buckets.data());
        uint64_t cumulative = 0;
        uint64_t total = 0;
        for (int b = 0; b < Histogram::kBuckets; ++b)
            total += buckets[b];
        for (int b = 0; b < Histogram::kBuckets; ++b) {
            if (buckets[b] == 0)
                continue;
            cumulative += buckets[b];
            double lo = 0.0;
            double hi = 0.0;
            Histogram::bucketBounds(b, &lo, &hi);
            os << p << "_bucket{le=\"" << fmtDouble(hi) << "\"} " << cumulative
               << "\n";
        }
        os << p << "_bucket{le=\"+Inf\"} " << total << "\n";
        const HistogramSnapshot snap = h->snapshot();
        os << p << "_sum " << fmtDouble(snap.sum) << "\n";
        os << p << "_count " << total << "\n";
    }
}

void
MetricsRegistry::renderJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : impl_->counters) {
        os << (first ? "\n" : ",\n");
        os << "    \"" << jsonEscape(name) << "\": " << c->value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto &[name, g] : impl_->gauges) {
        os << (first ? "\n" : ",\n");
        os << "    \"" << jsonEscape(name) << "\": " << g->value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : impl_->histograms) {
        const HistogramSnapshot s = h->snapshot();
        os << (first ? "\n" : ",\n");
        os << "    \"" << jsonEscape(name) << "\": {\"count\": " << s.count
           << ", \"sum\": " << fmtDouble(s.sum)
           << ", \"mean\": " << fmtDouble(s.mean)
           << ", \"min\": " << fmtDouble(s.min)
           << ", \"max\": " << fmtDouble(s.max)
           << ", \"p50\": " << fmtDouble(s.p50)
           << ", \"p95\": " << fmtDouble(s.p95)
           << ", \"p99\": " << fmtDouble(s.p99) << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
}

bool
MetricsRegistry::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        MIRAGE_WARN("obs: cannot open metrics dump path '", path, "'");
        return false;
    }
    renderJson(os);
    os.flush();
    if (!os) {
        MIRAGE_WARN("obs: failed writing metrics dump to '", path, "'");
        return false;
    }
    return true;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (auto &kv : impl_->counters)
        kv.second->reset();
    for (auto &kv : impl_->gauges)
        kv.second->reset();
    for (auto &kv : impl_->histograms)
        kv.second->reset();
}

} // namespace obs
} // namespace mirage
