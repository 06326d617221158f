/**
 * @file
 * Observability layer tests: counter/gauge/histogram semantics, the
 * registry's stable-handle and exposition contracts, the enable gates,
 * concurrent recording (the TSan job runs this suite), histogram
 * quantile accuracy against the exact nearest-rank percentile the serve
 * stats use, trace-span recording/export/wrap-around, request-context
 * propagation (RequestScope, flow events, the engine handoff), the
 * scrape endpoint, the flight recorder ring and its armed/disarmed
 * trigger contract, and the disabled-path cost bound the "near-zero
 * cost when off" promise makes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/rng.h"
#include "obs/context.h"
#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/engine.h"

#if defined(__SANITIZE_THREAD__)
#define MIRAGE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MIRAGE_TEST_TSAN 1
#endif
#endif

namespace mirage {
namespace {

/** Forces a known enable state (recording on, tracing off) for the test
 *  body regardless of MIRAGE_OBS/MIRAGE_TRACE in the environment, and
 *  restores it on exit so tests cannot leak state into each other. */
struct ObsStateGuard
{
    ObsStateGuard()
    {
        obs::setEnabled(true);
        obs::setTraceEnabled(false);
    }
    ~ObsStateGuard()
    {
        obs::setEnabled(true);
        obs::setTraceEnabled(false);
    }
};

/** Nearest-rank percentile, exactly as serve::ServerStats computes it. */
double
exactPercentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

TEST(ObsCounter, AddAggregatesAcrossShardsAndResets)
{
    ObsStateGuard guard;
    obs::Counter &c = obs::MetricsRegistry::global().counter("test.counter.a");
    c.reset();
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    EXPECT_EQ(c.name(), "test.counter.a");
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, RegistryReturnsTheSameHandleForTheSameName)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    EXPECT_EQ(&reg.counter("test.counter.same"),
              &reg.counter("test.counter.same"));
    EXPECT_EQ(&reg.gauge("test.gauge.same"), &reg.gauge("test.gauge.same"));
    EXPECT_EQ(&reg.histogram("test.hist.same"),
              &reg.histogram("test.hist.same"));
    EXPECT_EQ(reg.findCounter("test.counter.same"),
              &reg.counter("test.counter.same"));
    EXPECT_EQ(reg.findCounter("test.counter.never.registered"), nullptr);
}

TEST(ObsCounter, DisabledRecordingDropsOnTheFloor)
{
    ObsStateGuard guard;
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    obs::Counter &c = reg.counter("test.counter.gated");
    obs::Gauge &g = reg.gauge("test.gauge.gated");
    obs::Histogram &h = reg.histogram("test.hist.gated");
    c.reset();
    g.reset();
    h.reset();

    obs::setEnabled(false);
    EXPECT_FALSE(obs::enabled());
    c.add(7);
    g.set(7);
    g.add(7);
    h.record(7);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);

    obs::setEnabled(true);
    c.add(7);
    g.set(7);
    h.record(7);
    EXPECT_EQ(c.value(), 7u);
    EXPECT_EQ(g.value(), 7);
    EXPECT_EQ(h.count(), 1u);
}

TEST(ObsEnv, ParseAcceptsOnlyKnownValues)
{
    EXPECT_EQ(obs::parseObsEnv("0"), false);
    EXPECT_EQ(obs::parseObsEnv("false"), false);
    EXPECT_EQ(obs::parseObsEnv(" off "), false);
    EXPECT_EQ(obs::parseObsEnv("1"), true);
    EXPECT_EQ(obs::parseObsEnv("true"), true);
    EXPECT_EQ(obs::parseObsEnv("on"), true);

    std::string error;
    for (const char *bad : {"", "  ", "of", "OFF", "no", "2", "yes", "0,"}) {
        error.clear();
        EXPECT_EQ(obs::parseObsEnv(bad, &error), std::nullopt) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
    EXPECT_EQ(obs::parseObsEnv(nullptr), std::nullopt);
}

TEST(ObsGauge, SetAndAddAreLastWriteWins)
{
    ObsStateGuard guard;
    obs::Gauge &g = obs::MetricsRegistry::global().gauge("test.gauge.b");
    g.reset();
    g.set(10);
    g.add(-3);
    EXPECT_EQ(g.value(), 7);
    g.set(-5);
    EXPECT_EQ(g.value(), -5);
}

TEST(ObsHistogram, BucketIndexIsMonotonicAndBoundsContainTheValue)
{
    int prev = -1;
    for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{7}, uint64_t{15},
                       uint64_t{16}, uint64_t{17}, uint64_t{100},
                       uint64_t{1000}, uint64_t{123456789},
                       uint64_t{1} << 40, ~uint64_t{0}}) {
        const int idx = obs::Histogram::bucketIndex(v);
        ASSERT_GE(idx, 0);
        ASSERT_LT(idx, obs::Histogram::kBuckets);
        EXPECT_GE(idx, prev) << "v=" << v;
        prev = idx;
        double low = 0.0, high = 0.0;
        obs::Histogram::bucketBounds(idx, &low, &high);
        EXPECT_LE(low, static_cast<double>(v)) << "v=" << v;
        // ~0 rounds up to 2^64 in double, landing exactly on the top
        // bucket's high edge; every representable value sits below it.
        if (v == ~uint64_t{0})
            EXPECT_GE(high, static_cast<double>(v)) << "v=" << v;
        else
            EXPECT_GT(high, static_cast<double>(v)) << "v=" << v;
    }
    // Values below 16 are recorded exactly: each has its own bucket.
    for (uint64_t v = 0; v < 16; ++v) {
        double low = 0.0, high = 0.0;
        obs::Histogram::bucketBounds(obs::Histogram::bucketIndex(v), &low,
                                     &high);
        EXPECT_EQ(low, static_cast<double>(v));
        EXPECT_EQ(high, static_cast<double>(v + 1));
    }
}

TEST(ObsHistogram, CountSumMinMaxAreTracked)
{
    ObsStateGuard guard;
    obs::Histogram &h = obs::MetricsRegistry::global().histogram("test.hist.c");
    h.reset();
    const uint64_t values[] = {3, 3, 50, 700, 90000};
    uint64_t sum = 0;
    for (uint64_t v : values) {
        h.record(v);
        sum += v;
    }
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 5u);
    EXPECT_EQ(snap.sum, static_cast<double>(sum));
    EXPECT_NEAR(snap.mean, static_cast<double>(sum) / 5.0, 1e-9);
    // min is the low edge of the lowest bucket (exact below 16); max is
    // the midpoint of the highest, bounded by half a bucket width.
    EXPECT_EQ(snap.min, 3.0);
    EXPECT_NEAR(snap.max, 90000.0, 90000.0 / 16.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
}

TEST(ObsHistogram, QuantilesMatchExactNearestRankWithinBucketError)
{
    // The acceptance bar for the histogram design: its p50/p95/p99 must
    // land within the bucket-resolution bound (half a 1/8-octave bucket,
    // 1/16 relative) of the exact nearest-rank percentile that
    // serve::ServerStats computes from sorted samples.
    ObsStateGuard guard;
    obs::Histogram &h = obs::MetricsRegistry::global().histogram("test.hist.q");
    h.reset();
    Rng rng(2024);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
        // Log-normal-ish latencies spanning ~3 decades, like real queue
        // delays: exp(N(ln(50us), 1)) nanoseconds.
        const double v = 50e3 * std::exp(rng.gaussian());
        const uint64_t ns = static_cast<uint64_t>(v);
        samples.push_back(static_cast<double>(ns));
        h.record(ns);
    }
    const obs::HistogramSnapshot snap = h.snapshot();
    for (const auto &[q, got] :
         {std::pair<double, double>{0.50, snap.p50},
          std::pair<double, double>{0.95, snap.p95},
          std::pair<double, double>{0.99, snap.p99}}) {
        const double exact = exactPercentile(samples, q);
        EXPECT_NEAR(got, exact, exact * 0.0700)
            << "q=" << q << " exact=" << exact << " hist=" << got;
    }
}

TEST(ObsHistogram, ConcurrentRecordingKeepsExactTotals)
{
    // 4 writers hammer one counter and one histogram while a reader
    // aggregates mid-flight; the TSan job runs this to prove the sharded
    // relaxed-atomic scheme is race-free, and the final totals must be
    // exact (sharding may only affect read timing, never the sum).
    ObsStateGuard guard;
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    obs::Counter &c = reg.counter("test.counter.hammer");
    obs::Histogram &h = reg.histogram("test.hist.hammer");
    c.reset();
    h.reset();

#ifdef MIRAGE_TEST_TSAN
    constexpr uint64_t kPerThread = 20000; // TSan is ~20x slower
#else
    constexpr uint64_t kPerThread = 200000;
#endif
    constexpr int kWriters = 4;
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        uint64_t last = 0;
        while (!stop.load(std::memory_order_acquire)) {
            const uint64_t now = c.value();
            EXPECT_GE(now, last); // monotone under concurrent adds
            last = now;
            (void)h.snapshot();
        }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                c.add(1);
                h.record((i + static_cast<uint64_t>(w)) & 0xfff);
            }
        });
    }
    for (auto &t : writers)
        t.join();
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(c.value(), kPerThread * kWriters);
    EXPECT_EQ(h.count(), kPerThread * kWriters);
}

TEST(ObsRegistry, PrometheusTextExpositionHasTheExpectedShape)
{
    ObsStateGuard guard;
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.counter("test.expo.requests").reset();
    reg.counter("test.expo.requests").add(3);
    reg.gauge("test.expo.depth").set(-2);
    reg.histogram("test.expo.lat_ns").reset();
    reg.histogram("test.expo.lat_ns").record(100);

    std::ostringstream os;
    reg.renderText(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("mirage_test_expo_requests 3"), std::string::npos)
        << text;
    EXPECT_NE(text.find("mirage_test_expo_depth -2"), std::string::npos);
    EXPECT_NE(text.find("mirage_test_expo_lat_ns_count 1"),
              std::string::npos);
    EXPECT_NE(text.find("mirage_test_expo_lat_ns_sum 100"),
              std::string::npos);
    EXPECT_NE(text.find("mirage_test_expo_lat_ns_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE mirage_test_expo_requests counter"),
              std::string::npos);
}

TEST(ObsRegistry, JsonDumpIsParsableShape)
{
    ObsStateGuard guard;
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.counter("test.json.count").reset();
    reg.counter("test.json.count").add(9);
    std::ostringstream os;
    reg.renderJson(os);
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json.count\": 9"), std::string::npos)
        << json;
}

TEST(ObsTrace, SpansExportAsChromeCompleteEvents)
{
    ObsStateGuard guard;
    obs::clearTrace();
    obs::setTraceEnabled(true);
    {
        MIRAGE_SPAN("test.outer");
        {
            MIRAGE_SPAN("test.inner");
        }
    }
    obs::setTraceEnabled(false);
    std::ostringstream os;
    obs::writeChromeTrace(os);
    const std::string trace = os.str();
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"name\": \"test.outer\""), std::string::npos)
        << trace;
    EXPECT_NE(trace.find("\"name\": \"test.inner\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
    obs::clearTrace();
}

TEST(ObsTrace, DisabledSpansRecordNothing)
{
    ObsStateGuard guard;
    obs::clearTrace();
    ASSERT_FALSE(obs::traceEnabled());
    {
        MIRAGE_SPAN("test.never");
    }
    std::ostringstream os;
    obs::writeChromeTrace(os);
    EXPECT_EQ(os.str().find("test.never"), std::string::npos);
}

TEST(ObsTrace, RingBufferWrapsAndCountsDroppedEvents)
{
    // Capacity only applies to buffers created after the call, so wrap
    // in a fresh thread (this thread's ring may already exist at the
    // default size from earlier tests).
    ObsStateGuard guard;
    obs::clearTrace();
    obs::setTraceBufferCapacity(8);
    obs::setTraceEnabled(true);
    const uint64_t dropped_before = obs::traceDropped();
    std::thread t([] {
        for (int i = 0; i < 20; ++i) {
            MIRAGE_SPAN("test.wrap");
        }
    });
    t.join();
    obs::setTraceEnabled(false);
    obs::setTraceBufferCapacity(0); // restore the default for later tests
    EXPECT_EQ(obs::traceDropped() - dropped_before, 12u);
    std::ostringstream os;
    obs::writeChromeTrace(os);
    const std::string trace = os.str();
    // The ring retains the newest 8 events.
    size_t occurrences = 0;
    for (size_t pos = trace.find("test.wrap"); pos != std::string::npos;
         pos = trace.find("test.wrap", pos + 1))
        ++occurrences;
    EXPECT_EQ(occurrences, 8u);
    obs::clearTrace();
}

TEST(ObsContext, RequestIdsAreMonotonicAndScopesNestAndRestore)
{
    const uint64_t a = obs::nextRequestId();
    const uint64_t b = obs::nextRequestId();
    EXPECT_GT(a, 0u);
    EXPECT_GT(b, a);

    const uint64_t outside = obs::currentRequestId();
    {
        obs::RequestScope outer(a);
        EXPECT_EQ(obs::currentRequestId(), a);
        {
            obs::RequestScope inner(b);
            EXPECT_EQ(obs::currentRequestId(), b);
        }
        EXPECT_EQ(obs::currentRequestId(), a);
    }
    EXPECT_EQ(obs::currentRequestId(), outside);

    // The context is per-thread: a fresh thread starts outside any
    // request and a scope there never leaks back here.
    std::thread t([] {
        EXPECT_EQ(obs::currentRequestId(), 0u);
        obs::RequestScope scope(12345);
        EXPECT_EQ(obs::currentRequestId(), 12345u);
    });
    t.join();
    EXPECT_EQ(obs::currentRequestId(), outside);
}

TEST(ObsContext, RequestJsonlFormatsEveryField)
{
    obs::RequestRecord rec;
    rec.id = 42;
    rec.batch_seq = 7;
    rec.cls = obs::kClassBatch;
    rec.cache_hit = true;
    rec.deadline_met = false;
    rec.shed = false;
    rec.tile = 3;
    rec.batch_size = 8;
    rec.queue_ns = 1000;
    rec.execute_ns = 2000;
    rec.reply_ns = 30;
    rec.total_ns = 3030;
    rec.modeled_ns = 150;
    rec.modeled_nj = 999;

    char buf[obs::kRequestJsonlMax];
    const size_t n = obs::formatRequestJsonl(rec, buf, sizeof(buf));
    const std::string line(buf, n);
    EXPECT_EQ(line,
              "{\"id\":42,\"batch\":7,\"class\":\"batch\",\"tile\":3,"
              "\"batch_size\":8,\"cache_hit\":true,\"deadline_met\":false,"
              "\"shed\":false,\"queue_ns\":1000,\"execute_ns\":2000,"
              "\"reply_ns\":30,\"total_ns\":3030,\"modeled_ns\":150,"
              "\"modeled_nj\":999}\n");

    // The stream helper emits the identical line.
    std::ostringstream os;
    obs::writeRequestJsonl(os, rec);
    EXPECT_EQ(os.str(), line);

    // A tile of -1 (unmapped, e.g. a shed record) formats signed.
    rec.tile = -1;
    const size_t m = obs::formatRequestJsonl(rec, buf, sizeof(buf));
    EXPECT_NE(std::string(buf, m).find("\"tile\":-1"), std::string::npos);

    // Truncation clamps at the caller's capacity instead of overrunning.
    char tiny[8];
    EXPECT_LE(obs::formatRequestJsonl(rec, tiny, sizeof(tiny)),
              sizeof(tiny));

    EXPECT_STREQ(obs::requestClassName(obs::kClassInteractive),
                 "interactive");
    EXPECT_STREQ(obs::requestClassName(obs::kClassTrain), "train");
    EXPECT_STREQ(obs::requestClassName(250), "unknown");
}

TEST(ObsTrace, FlowPointsExportWithIdCategoryAndBinding)
{
    ObsStateGuard guard;
    obs::clearTrace();
    obs::setTraceEnabled(true);
    {
        MIRAGE_SPAN("test.flow.host");
        obs::traceFlow("test.flow", 777, 's');
        obs::traceFlow("test.flow", 777, 't');
        obs::traceFlow("test.flow", 777, 'f');
    }
    obs::setTraceEnabled(false);
    std::ostringstream os;
    obs::writeChromeTrace(os);
    const std::string trace = os.str();
    EXPECT_NE(trace.find("\"ph\": \"s\""), std::string::npos) << trace;
    EXPECT_NE(trace.find("\"ph\": \"t\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"f\""), std::string::npos);
    // Flow points carry the linking id, the category, and the
    // enclosing-slice binding Perfetto needs to anchor the arrow.
    EXPECT_NE(trace.find("\"id\": 777"), std::string::npos);
    EXPECT_NE(trace.find("\"cat\": \"request\""), std::string::npos);
    EXPECT_NE(trace.find("\"bp\": \"e\""), std::string::npos);
    obs::clearTrace();
}

TEST(ObsTrace, FlowIsSilentWhenDisabledOrOutsideARequest)
{
    ObsStateGuard guard;
    obs::clearTrace();
    ASSERT_FALSE(obs::traceEnabled());
    obs::traceFlow("test.flow.off", 9, 's'); // tracing disabled

    obs::setTraceEnabled(true);
    obs::traceFlow("test.flow.zero", 0, 's'); // id 0 = no request context
    obs::setTraceEnabled(false);

    std::ostringstream os;
    obs::writeChromeTrace(os);
    EXPECT_EQ(os.str().find("test.flow.off"), std::string::npos);
    EXPECT_EQ(os.str().find("test.flow.zero"), std::string::npos);
}

TEST(ObsTrace, SpanNamesAreEscapedInExport)
{
    ObsStateGuard guard;
    obs::clearTrace();
    obs::setTraceEnabled(true);
    {
        MIRAGE_SPAN("test.\"esc\"\\\n");
    }
    obs::setTraceEnabled(false);
    std::ostringstream os;
    obs::writeChromeTrace(os);
    const std::string trace = os.str();
    // Quote -> \", backslash -> \\, newline -> \n, so the export stays
    // parseable JSON instead of being rejected wholesale by Perfetto.
    EXPECT_NE(trace.find("test.\\\"esc\\\"\\\\\\n"), std::string::npos)
        << trace;
    obs::clearTrace();
}

TEST(ObsTrace, SummaryListsRecordedSpans)
{
    ObsStateGuard guard;
    obs::clearTrace();
    obs::setTraceEnabled(true);
    {
        MIRAGE_SPAN("test.summary.span");
    }
    obs::setTraceEnabled(false);
    std::ostringstream os;
    obs::writeTraceSummary(os);
    EXPECT_NE(os.str().find("test.summary.span"), std::string::npos)
        << os.str();
    obs::clearTrace();
}

TEST(ObsContext, EngineTasksInheritTheSubmittersRequestId)
{
    // The cross-thread handoff the serve path relies on: RuntimeEngine
    // snapshots currentRequestId() at submit time and re-establishes it
    // on the executing pool thread.
    ObsStateGuard guard;
    runtime::RuntimeEngine engine;
    const uint64_t id = obs::nextRequestId();
    std::atomic<uint64_t> seen{~uint64_t{0}};
    {
        obs::RequestScope scope(id);
        engine
            .submitTask([&](core::MirageAccelerator &, Rng &) {
                seen.store(obs::currentRequestId(),
                           std::memory_order_relaxed);
            })
            .get();
    }
    EXPECT_EQ(seen.load(), id);

    // Outside any request the job runs with the null context.
    engine
        .submitTask([&](core::MirageAccelerator &, Rng &) {
            seen.store(obs::currentRequestId(), std::memory_order_relaxed);
        })
        .get();
    EXPECT_EQ(seen.load(), 0u);
}

namespace {

/** Minimal blocking HTTP GET against 127.0.0.1:`port`; returns the full
 *  response (headers + body) or "" on connect failure. */
std::string
httpGet(int port, const std::string &target)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return "";
    }
    const std::string req =
        "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    size_t off = 0;
    while (off < req.size()) {
        const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
        if (n <= 0)
            break;
        off += static_cast<size_t>(n);
    }
    std::string resp;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        resp.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return resp;
}

} // namespace

TEST(ObsExporter, ServesScrapeEndpointsOnEphemeralPort)
{
    ObsStateGuard guard;
    obs::MetricsRegistry::global().counter("test.exporter.counter").reset();
    obs::MetricsRegistry::global().counter("test.exporter.counter").add(5);

    obs::MetricsExporter exporter(0); // ephemeral port
    ASSERT_GT(exporter.port(), 0);

    const std::string health = httpGet(exporter.port(), "/healthz");
    EXPECT_NE(health.find("200"), std::string::npos) << health;
    EXPECT_NE(health.find("ok"), std::string::npos);

    const std::string metrics = httpGet(exporter.port(), "/metrics");
    EXPECT_NE(metrics.find("200"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain"), std::string::npos);
    EXPECT_NE(metrics.find("mirage_test_exporter_counter 5"),
              std::string::npos)
        << metrics;

    const std::string tracez = httpGet(exporter.port(), "/tracez");
    EXPECT_NE(tracez.find("200"), std::string::npos);

    const std::string missing = httpGet(exporter.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos) << missing;
    EXPECT_NE(missing.find("/metrics"), std::string::npos); // endpoint list

    EXPECT_GE(exporter.requestsServed(), 4u);
}

TEST(ObsExporter, WriteAllDeliversEveryByteThroughShortWrites)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
#ifdef F_SETPIPE_SZ
    // Shrink the pipe so the writer sees the buffer fill up repeatedly and
    // write() returns short counts instead of taking the payload whole.
    ::fcntl(fds[1], F_SETPIPE_SZ, 4096);
#endif

    std::vector<char> payload(1 << 20);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>((i * 31 + 7) & 0xff);

    std::vector<char> received;
    received.reserve(payload.size());
    std::thread reader([&] {
        char buf[512]; // small chunks keep the pipe near-full
        for (;;) {
            const ssize_t n = ::read(fds[0], buf, sizeof buf);
            if (n <= 0)
                break;
            received.insert(received.end(), buf, buf + n);
        }
    });

    EXPECT_TRUE(obs::writeAll(fds[1], payload.data(), payload.size()));
    ::close(fds[1]);
    reader.join();
    ::close(fds[0]);

    ASSERT_EQ(received.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), received.begin()));
}

TEST(ObsExporter, WriteAllRetriesInterruptedWrites)
{
    // Install a no-op SIGUSR1 handler WITHOUT SA_RESTART so a blocked
    // write() returns EINTR instead of resuming transparently.
    struct sigaction sa = {};
    sa.sa_handler = [](int) {};
    sa.sa_flags = 0;
    struct sigaction old_sa;
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old_sa), 0);

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
#ifdef F_SETPIPE_SZ
    ::fcntl(fds[1], F_SETPIPE_SZ, 4096);
#endif

    std::vector<char> payload(256 * 1024);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>((i * 13 + 3) & 0xff);

    std::atomic<bool> write_done{false};
    bool write_ok = false;
    std::thread writer([&] {
        write_ok = obs::writeAll(fds[1], payload.data(), payload.size());
        write_done.store(true, std::memory_order_release);
        ::close(fds[1]);
    });

    // Pepper the writer with signals while draining slowly, so some write()
    // calls are interrupted mid-wait on the full pipe.
    std::vector<char> received;
    received.reserve(payload.size());
    char buf[512];
    while (!write_done.load(std::memory_order_acquire) ||
           received.size() < payload.size()) {
        ::pthread_kill(writer.native_handle(), SIGUSR1);
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n <= 0)
            break;
        received.insert(received.end(), buf, buf + n);
    }
    // Drain whatever is still buffered after the writer finished.
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n <= 0)
            break;
        received.insert(received.end(), buf, buf + n);
    }
    writer.join();
    ::close(fds[0]);
    ::sigaction(SIGUSR1, &old_sa, nullptr);

    EXPECT_TRUE(write_ok);
    ASSERT_EQ(received.size(), payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), received.begin()));
}

TEST(ObsExporter, WriteAllReportsPeerClosure)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ::close(sv[0]); // peer goes away

    // MSG_NOSIGNAL in writeAll turns the would-be SIGPIPE into an error
    // return; a large payload guarantees at least one failing send().
    std::vector<char> payload(1 << 20, 'x');
    EXPECT_FALSE(obs::writeAll(sv[1], payload.data(), payload.size()));
    ::close(sv[1]);
}

TEST(ObsFlight, RingKeepsNewestRecordsOldestFirst)
{
    ObsStateGuard guard;
    obs::FlightRecorder &fr = obs::FlightRecorder::global();
    fr.disarm();
    fr.clear();
    EXPECT_EQ(fr.size(), 0u);

    const uint64_t recorded_before = fr.recorded();
    obs::RequestRecord rec;
    for (uint64_t i = 1; i <= 5; ++i) {
        rec.id = i;
        fr.record(rec);
    }
    EXPECT_EQ(fr.size(), 5u);
    EXPECT_EQ(fr.recorded() - recorded_before, 5u);
    std::vector<obs::RequestRecord> snap = fr.snapshot();
    ASSERT_EQ(snap.size(), 5u);
    for (uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(snap[i].id, i + 1); // oldest first

    // Overfill: the ring holds the newest kCapacity records.
    for (uint64_t i = 6; i <= obs::FlightRecorder::kCapacity + 10; ++i) {
        rec.id = i;
        fr.record(rec);
    }
    EXPECT_EQ(fr.size(), obs::FlightRecorder::kCapacity);
    snap = fr.snapshot();
    ASSERT_EQ(snap.size(), obs::FlightRecorder::kCapacity);
    EXPECT_EQ(snap.front().id, 11u);
    EXPECT_EQ(snap.back().id, obs::FlightRecorder::kCapacity + 10);

    // Recording is gated with the rest of the obs layer.
    obs::setEnabled(false);
    rec.id = 999999;
    fr.record(rec);
    EXPECT_EQ(fr.snapshot().back().id, obs::FlightRecorder::kCapacity + 10);
    obs::setEnabled(true);
    fr.clear();
}

TEST(ObsFlight, TriggerDumpsOnlyWhenArmed)
{
    ObsStateGuard guard;
    obs::FlightRecorder &fr = obs::FlightRecorder::global();
    fr.disarm();
    fr.clear();
    fr.setMinTriggerInterval(0.0);

    obs::RequestRecord rec;
    rec.id = 314;
    rec.total_ns = 1000;
    fr.record(rec);

    // Disarmed: trigger is a counted no-op that writes nothing.
    EXPECT_FALSE(fr.armed());
    EXPECT_EQ(fr.trigger("test_reason"), "");

    const std::string dir =
        (std::filesystem::path(testing::TempDir()) / "mirage_flight_test")
            .string();
    std::filesystem::create_directories(dir);
    fr.arm(dir);
    EXPECT_TRUE(fr.armed());
    EXPECT_EQ(fr.armedDir(), dir);

    const uint64_t dumps_before = fr.triggerCount();
    const std::string path = fr.trigger("test_reason");
    ASSERT_NE(path, "");
    EXPECT_EQ(fr.triggerCount(), dumps_before + 1);
    EXPECT_NE(path.find("flight_test_reason_"), std::string::npos) << path;

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::string line;
    bool found = false;
    while (std::getline(in, line))
        if (line.find("\"id\":314") != std::string::npos)
            found = true;
    EXPECT_TRUE(found) << path;
    // The companion span snapshot rides along for timeline context.
    const std::string trace_path =
        path.substr(0, path.size() - std::strlen(".jsonl")) + ".trace.json";
    EXPECT_TRUE(std::filesystem::exists(trace_path)) << trace_path;

    // An empty ring is suppressed even when armed.
    fr.clear();
    EXPECT_EQ(fr.trigger("test_reason"), "");

    fr.disarm();
    EXPECT_FALSE(fr.armed());
    fr.setMinTriggerInterval(2.0);
    std::filesystem::remove_all(dir);
}

#if defined(NDEBUG) && !defined(MIRAGE_TEST_TSAN)
TEST(ObsOverhead, DisabledPrimitivesCostAFewNanoseconds)
{
    // The "near-zero cost when off" contract: a disabled record is one
    // relaxed load plus a branch. 30 ns/op is an order of magnitude
    // above the expected cost (~1-2 ns) but still far below anything a
    // real per-record body would cost, so the bound catches a mistake
    // like formatting before the gate without flaking on slow CI.
    ObsStateGuard guard;
    obs::setEnabled(false);
    obs::setTraceEnabled(false);
    obs::Counter &c =
        obs::MetricsRegistry::global().counter("test.overhead.counter");
    obs::Histogram &h =
        obs::MetricsRegistry::global().histogram("test.overhead.hist");
    constexpr uint64_t kIters = 2000000;
    using Clock = std::chrono::steady_clock;

    const auto bound_ns = [](Clock::time_point t0, Clock::time_point t1) {
        return std::chrono::duration<double, std::nano>(t1 - t0).count() /
               static_cast<double>(kIters);
    };

    Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < kIters; ++i)
        c.add(1);
    Clock::time_point t1 = Clock::now();
    EXPECT_LT(bound_ns(t0, t1), 30.0) << "disabled Counter::add";
    EXPECT_EQ(c.value(), 0u);

    t0 = Clock::now();
    for (uint64_t i = 0; i < kIters; ++i)
        h.record(i);
    t1 = Clock::now();
    EXPECT_LT(bound_ns(t0, t1), 30.0) << "disabled Histogram::record";
    EXPECT_EQ(h.count(), 0u);

    t0 = Clock::now();
    for (uint64_t i = 0; i < kIters; ++i) {
        MIRAGE_SPAN("test.overhead.span");
    }
    t1 = Clock::now();
    EXPECT_LT(bound_ns(t0, t1), 30.0) << "disabled TraceSpan";
}

TEST(ObsOverhead, ContextPropagationCostsAFewNanoseconds)
{
    // The request-context handoff rides every engine job regardless of
    // trace state, so it carries the same bound as the disabled
    // primitives: a RequestScope is two thread-local moves, a disabled
    // traceFlow one relaxed load plus a branch.
    ObsStateGuard guard;
    obs::setTraceEnabled(false);
    constexpr uint64_t kIters = 2000000;
    using Clock = std::chrono::steady_clock;

    const auto bound_ns = [](Clock::time_point t0, Clock::time_point t1) {
        return std::chrono::duration<double, std::nano>(t1 - t0).count() /
               static_cast<double>(kIters);
    };

    uint64_t acc = 0;
    Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < kIters; ++i) {
        obs::RequestScope scope(i + 1);
        acc += obs::currentRequestId();
    }
    Clock::time_point t1 = Clock::now();
    EXPECT_LT(bound_ns(t0, t1), 30.0) << "RequestScope save/set/restore";
    EXPECT_EQ(acc, kIters * (kIters + 1) / 2); // keeps the loop live

    t0 = Clock::now();
    for (uint64_t i = 0; i < kIters; ++i)
        obs::traceFlow("test.overhead.flow", i + 1, 't');
    t1 = Clock::now();
    EXPECT_LT(bound_ns(t0, t1), 30.0) << "disabled traceFlow";
}
#endif // NDEBUG && !TSan

} // namespace
} // namespace mirage
