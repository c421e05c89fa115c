/**
 * @file
 * bfly_bench: the service benchmark's generator.
 *
 *   bfly_bench --serve PATH --workload NAME --seed N --seconds S
 *              --trace 0|1 [--run-dir DIR]
 *
 * Sets the workload up several times (generate, interleave, slice,
 * reference reports, spawn bfly_serve, wait for it, warm up) and reports
 * the median set-up time; drives the last server for S seconds through
 * MonitorClient, checking every report against analyzeReference;
 * SIGTERMs the server and checks its exit counters against its own.
 * With --trace 1 it then replays the sessions in-process with spans
 * around every layer. The last line of standard output is one JSON
 * object: correct, attempted, failed and the end-to-end (--trace 0) or
 * per-layer (--trace 1) metrics. Exit status 0 only when correct.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "inputs.hpp"
#include "replay.hpp"
#include "server_process.hpp"
#include "timed_run.hpp"

using namespace perfbench;

namespace {

// Set-up runs at least kMinSetupReps times and until kMinSetupSeconds
// are spent, at most kMaxSetupReps times; setup_s is the median.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 9;
constexpr double kMinSetupSeconds = 2.0;

struct Options
{
    std::string serve;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string runDir = ".bench_build/run";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bfly_bench: %s\nusage: bfly_bench --serve PATH --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--run-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *v = argv[++i];
        if (arg == "--serve")
            o.serve = v;
        else if (arg == "--workload")
            o.workload = v;
        else if (arg == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::strtod(v, nullptr);
        else if (arg == "--trace")
            o.trace = std::string(v) == "1";
        else if (arg == "--run-dir")
            o.runDir = v;
        else
            usage(("unknown option " + arg).c_str());
    }
    bool known = false;
    for (const std::string &name : workloadNames())
        known = known || name == o.workload;
    if (!known)
        usage(("unknown workload '" + o.workload + "'").c_str());
    if (o.serve.empty() || !(o.seconds > 0))
        usage("--serve and a positive --seconds are required");
    return o;
}

/** Stop @p server and check its exit counters against the generator's. */
bool
stopAndReconcile(ServerProcess &server, const Tally &seen, std::string &error)
{
    ServerTotals totals;
    if (!server.stop(totals, error))
        return false;
    if (totals.failed != 0 || totals.completed != seen.summaries) {
        error = "bfly_serve counted completed=" +
                std::to_string(totals.completed) +
                " failed=" + std::to_string(totals.failed) +
                ", generator saw " + std::to_string(seen.summaries) +
                " summaries";
        return false;
    }
    return true;
}

void
printErrors(const char *phase, const Tally &t)
{
    for (const std::string &e : t.errors)
        std::fprintf(stderr, "bfly_bench: %s: %s\n", phase, e.c_str());
}

void
printResult(bool correct, const Tally &all, const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(all.attempted),
                static_cast<unsigned long long>(all.failed()));
    const char *sep = "";
    for (const auto &[name, m] : metrics) {
        // A failed session's latency is infinite; JSON has no infinity.
        const double v = std::isfinite(m.value) ? m.value : 1e300;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), v, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    ::mkdir(opt.runDir.c_str(), 0755); // may exist
    const std::string tag =
        opt.workload + "-" + std::to_string(opt.seed) + "-" +
        std::to_string(::getpid());
    // Relative to the working directory, so the path stays short.
    const std::string socket = opt.runDir + "/bfly-" + tag + ".sock";

    // ---- set-up, several times; the last one's server is measured.
    std::vector<double> setupS;
    Plan plan;
    ServerProcess server;
    Tally all;       // every session this run attempted
    Tally lastSetup; // sessions the measured server has served so far
    bool correct = true;
    std::string error;
    double setupTotal = 0;
    while (setupS.size() < kMinSetupReps ||
           (setupTotal < kMinSetupSeconds && setupS.size() < kMaxSetupReps)) {
        if (!setupS.empty() && !stopAndReconcile(server, lastSetup, error)) {
            std::fprintf(stderr, "bfly_bench: %s\n", error.c_str());
            correct = false;
        }
        const auto t0 = Clock::now();
        plan = Plan{};
        plan = makePlan(opt.workload, opt.seed);
        if (!server.start(opt.serve, socket, error)) {
            std::fprintf(stderr, "bfly_bench: %s\n", error.c_str());
            return 1;
        }
        lastSetup = warmUp(plan, socket);
        setupS.push_back(msBetween(t0, Clock::now()) / 1e3);
        setupTotal += setupS.back();
        all.merge(lastSetup);
        printErrors("warm-up", lastSetup);
        correct = correct && lastSetup.failed() == 0;
    }

    // ---- timed window, tracing off.
    const TimedResult timed = timedRun(plan, socket, server, opt.seconds);
    all.merge(timed.tally);
    printErrors("timed", timed.tally);
    Tally served = lastSetup;
    served.merge(timed.tally);
    if (!stopAndReconcile(server, served, error)) {
        std::fprintf(stderr, "bfly_bench: %s\n", error.c_str());
        correct = false;
    }
    correct = correct && timed.tally.failed() == 0;

    const Tally &t = timed.tally;
    const double sessions = static_cast<double>(t.attempted);
    const WindowSummary summary = summarize(timed);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::fprintf(stderr,
                 "bfly_bench: %s seed=%llu: %llu timed sessions in %.3f s, "
                 "%llu events, %zu of %zu groups quiet, host steal %.4f; "
                 "%zu set-ups, median %.3f s\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed),
                 static_cast<unsigned long long>(t.attempted),
                 timed.wallSeconds, static_cast<unsigned long long>(t.events),
                 summary.quietGroups, summary.groups, summary.stealFrac,
                 setupS.size(), median(setupS));

    Metrics metrics;
    if (!opt.trace) {
        metrics["events_per_s"] = {summary.eventsPerS, "events/s"};
        metrics["session_ms_p50"] = {summary.p50Ms, "ms"};
        metrics["session_ms_p90"] = {summary.p90Ms, "ms"};
        metrics["server_cpu_us_per_event"] = {
            timed.serverCpuSeconds * 1e6 / t.events, "us"};
        metrics["setup_s"] = {median(setupS), "s"};
    } else {
        metrics["workloads.gen_ms"] = {plan.genMs, "ms"};
        metrics["memmodel.interleave_ms"] = {plan.interleaveMs, "ms"};
        metrics["analyzer.reference_ms"] = {plan.referenceMs, "ms"};
        metrics["mux.busy_retries_per_session"] = {t.busyRetries / sessions,
                                                   "count"};
        metrics["mux.partial_frac"] = {t.partial / sessions, "fraction"};
        metrics["mux.shed_frac"] = {t.shed / sessions, "fraction"};
        metrics["client.log_bytes_per_session"] = {t.logBytes / sessions,
                                                   "bytes"};
        std::vector<double> rss, threads;
        double hwm = 0;
        for (const ProcSample &s : timed.samples) {
            rss.push_back(s.rssMb);
            threads.push_back(s.threads);
            hwm = std::max(hwm, s.hwmMb);
        }
        metrics["server.cpu_util"] = {
            timed.serverCpuSeconds / (timed.wallSeconds * hw), "fraction"};
        metrics["server.rss_hwm_mb"] = {hwm, "MB"};
        metrics["server.rss_p50_mb"] = {median(rss), "MB"};
        metrics["server.threads"] = {median(threads), "count"};
        metrics["gen.cpu_util"] = {
            timed.genCpuSeconds / (timed.wallSeconds * hw), "fraction"};
        metrics["host.steal_frac"] = {summary.stealFrac, "fraction"};

        const ReplayResult r =
            replay(plan, summary.p50Ms,
                   opt.runDir + "/spans-" + tag + ".trace.json");
        if (!r.ok) {
            std::fprintf(stderr, "bfly_bench: replay: %s\n", r.error.c_str());
            correct = false;
        }
        metrics.insert(r.metrics.begin(), r.metrics.end());
    }

    printResult(correct, all, metrics);
    return correct ? 0 : 1;
}
