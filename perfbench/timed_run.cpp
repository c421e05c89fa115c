#include "timed_run.hpp"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <fstream>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "service/client.hpp"

namespace perfbench {

namespace {

using bfly::service::MonitorClient;
using bfly::service::RunResult;
using bfly::service::SummaryStatus;

constexpr std::size_t kMaxErrors = 5;
constexpr auto kSampleEvery = std::chrono::milliseconds(50);

/** One session, connect to Summary, checked against the reference.
 *  @return true if the report is conformant. */
bool
runOne(const std::string &socket, const SessionInput &in, Tally &tally)
{
    ++tally.attempted;
    std::string error;
    MonitorClient client;
    if (!client.connectUnix(socket)) {
        error = "connect failed";
    } else {
        const RunResult r = client.run(in.spec, in.marked);
        tally.busyRetries += r.busyRetries;
        tally.logBytes += r.logBytesSent;
        tally.shed += r.overloaded ? 1 : 0;
        if (!r.ok) {
            error = r.error;
        } else {
            ++tally.summaries;
            if (r.summary.status == SummaryStatus::Partial) {
                ++tally.partial;
                error = "partial report";
            } else if (!r.report.identical(in.reference)) {
                error = "report differs from analyzeReference";
            } else {
                ++tally.conformant;
                tally.events += in.events;
                return true;
            }
        }
    }
    if (tally.errors.size() < kMaxErrors)
        tally.errors.push_back(in.label + ": " + error);
    return false;
}

double
cpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Host steal time over all CPUs, seconds ("cpu" line of /proc/stat). */
double
stealSeconds()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double field[8] = {};
    if (!(stat >> cpu) || cpu != "cpu")
        return 0;
    for (double &f : field)
        stat >> f;
    return field[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/** Linear interpolation of the steal series at @p ms. */
double
stealAt(const std::vector<StealSample> &steal, double ms)
{
    if (steal.empty())
        return 0;
    auto hi = std::lower_bound(
        steal.begin(), steal.end(), ms,
        [](const StealSample &s, double t) { return s.atMs < t; });
    if (hi == steal.begin())
        return hi->seconds;
    if (hi == steal.end())
        return steal.back().seconds;
    const auto lo = hi - 1;
    const double span = hi->atMs - lo->atMs;
    return span > 0 ? lo->seconds + (hi->seconds - lo->seconds) *
                                        (ms - lo->atMs) / span
                    : hi->seconds;
}

} // namespace

void
Tally::merge(const Tally &other)
{
    attempted += other.attempted;
    conformant += other.conformant;
    summaries += other.summaries;
    busyRetries += other.busyRetries;
    partial += other.partial;
    shed += other.shed;
    logBytes += other.logBytes;
    events += other.events;
    for (const std::string &e : other.errors)
        if (errors.size() < kMaxErrors)
            errors.push_back(e);
}

Tally
warmUp(const Plan &plan, const std::string &socket)
{
    std::vector<Tally> tallies(plan.connections);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < plan.connections; ++c)
        threads.emplace_back([&, c] {
            for (std::size_t s : plan.rotation[c])
                runOne(socket, plan.sessions[s], tallies[c]);
        });
    for (std::thread &t : threads)
        t.join();
    Tally total;
    for (const Tally &t : tallies)
        total.merge(t);
    return total;
}

TimedResult
timedRun(const Plan &plan, const std::string &socket,
         const ServerProcess &server, double seconds)
{
    TimedResult result;
    const unsigned n = plan.connections;
    std::vector<Tally> tallies(n);
    std::vector<std::vector<SessionSample>> sessions(n);
    constexpr double kFailed = std::numeric_limits<double>::infinity();

    const ProcSample cpu0 = server.sample();
    const double gen0 = cpuSeconds();
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
    result.steal.push_back({0, stealSeconds()});

    std::mutex sample_mutex;
    std::condition_variable sample_cv;
    bool sampling = true;
    std::thread sampler([&] {
        std::unique_lock<std::mutex> lock(sample_mutex);
        while (!sample_cv.wait_for(lock, kSampleEvery,
                                   [&] { return !sampling; })) {
            lock.unlock();
            const ProcSample s = server.sample();
            const StealSample steal{msBetween(start, Clock::now()),
                                    stealSeconds()};
            lock.lock();
            if (s.ok)
                result.samples.push_back(s);
            result.steal.push_back(steal);
        }
    });

    // Closed loop: each connection sends its next session when the
    // previous one returned, until the deadline.
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < n; ++c)
        threads.emplace_back([&, c] {
            const auto &order = plan.rotation[c];
            for (std::size_t i = 0; Clock::now() < deadline; ++i) {
                const auto t0 = Clock::now();
                const SessionInput &in =
                    plan.sessions[order[i % order.size()]];
                const bool ok = runOne(socket, in, tallies[c]);
                sessions[c].push_back(
                    {msBetween(start, t0),
                     ok ? msBetween(t0, Clock::now()) : kFailed,
                     ok ? in.events : 0});
            }
        });
    for (std::thread &t : threads)
        t.join();

    const auto end = Clock::now();
    const ProcSample cpu1 = server.sample();
    result.genCpuSeconds = cpuSeconds() - gen0;
    {
        std::lock_guard<std::mutex> lock(sample_mutex);
        sampling = false;
    }
    sample_cv.notify_all();
    sampler.join();
    result.steal.push_back({msBetween(start, end), stealSeconds()});

    result.wallSeconds = std::chrono::duration<double>(end - start).count();
    result.serverCpuSeconds = cpu1.cpuSeconds - cpu0.cpuSeconds;
    for (unsigned c = 0; c < n; ++c) {
        result.tally.merge(tallies[c]);
        result.sessions.insert(result.sessions.end(), sessions[c].begin(),
                               sessions[c].end());
    }
    return result;
}

WindowSummary
summarize(const TimedResult &timed)
{
    std::vector<SessionSample> s = timed.sessions;
    std::sort(s.begin(), s.end(),
              [](const SessionSample &a, const SessionSample &b) {
                  return a.startMs < b.startMs;
              });
    const double window_ms = timed.wallSeconds * 1e3;
    const double cpus = std::max(1u, std::thread::hardware_concurrency());
    const auto stealShare = [&](double from, double to) {
        return to > from ? (stealAt(timed.steal, to) -
                            stealAt(timed.steal, from)) /
                               ((to - from) / 1e3 * cpus)
                         : 0.0;
    };

    WindowSummary out;
    out.stealFrac = stealShare(0, window_ms);
    out.groups = std::max<std::size_t>(1, s.size() / kGroupSessions);
    std::vector<double> steal, eps, p50, p90;
    for (std::size_t g = 0; g < out.groups; ++g) {
        const std::size_t first = g * kGroupSessions;
        const std::size_t last =
            g + 1 == out.groups ? s.size() : first + kGroupSessions;
        const double from = g == 0 ? 0 : s[first].startMs;
        const double to = last < s.size() ? s[last].startMs : window_ms;
        std::vector<double> latency;
        std::uint64_t events = 0;
        for (std::size_t i = first; i < last; ++i) {
            latency.push_back(s[i].latencyMs);
            events += s[i].events;
        }
        steal.push_back(stealShare(from, to));
        eps.push_back(to > from ? events / ((to - from) / 1e3) : 0);
        p50.push_back(percentile(latency, 0.5));
        p90.push_back(percentile(latency, 0.9));
    }

    const double threshold = median(steal);
    std::vector<double> quiet_eps, quiet_p50, quiet_p90;
    for (std::size_t g = 0; g < out.groups; ++g) {
        if (steal[g] > threshold)
            continue;
        quiet_eps.push_back(eps[g]);
        quiet_p50.push_back(p50[g]);
        quiet_p90.push_back(p90[g]);
    }
    out.quietGroups = quiet_eps.size();
    out.eventsPerS = median(quiet_eps);
    out.p50Ms = median(quiet_p50);
    out.p90Ms = median(quiet_p90);
    return out;
}

} // namespace perfbench
