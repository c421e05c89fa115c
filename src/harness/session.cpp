#include "harness/session.hpp"

#include "butterfly/window.hpp"
#include "common/logging.hpp"
#include "lifeguards/addrcheck_oracle.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_span.hpp"
#include "trace/log_codec.hpp"

namespace bfly {

namespace {

/** Pre-interned session metric ids (registration is one-time). */
struct SessionMetrics
{
    telemetry::MetricId runs;
    telemetry::MetricId instructions;
    telemetry::MetricId memoryAccesses;
    telemetry::MetricId epochs;
    telemetry::MetricId threads;
    telemetry::MetricId butterflyErrors;
    telemetry::MetricId oracleErrors;
    telemetry::MetricId falsePositives;
    telemetry::MetricId falseNegatives;

    static const SessionMetrics &
    get()
    {
        static const SessionMetrics m = [] {
            auto &r = telemetry::registry();
            SessionMetrics s;
            s.runs = r.counter("bfly.session.runs");
            s.instructions = r.gauge("bfly.session.instructions");
            s.memoryAccesses = r.gauge("bfly.session.memory_accesses");
            s.epochs = r.gauge("bfly.session.epochs");
            s.threads = r.gauge("bfly.session.threads");
            s.butterflyErrors = r.gauge("bfly.session.butterfly_errors");
            s.oracleErrors = r.gauge("bfly.session.oracle_errors");
            s.falsePositives = r.gauge("bfly.session.false_positives");
            s.falseNegatives = r.gauge("bfly.session.false_negatives");
            return s;
        }();
        return m;
    }
};

} // namespace

SessionResult
runSession(const SessionConfig &config)
{
    ensure(config.factory != nullptr, "session needs a workload factory");

    // Root telemetry scope: everything below nests inside this span.
    telemetry::TraceSpan root("session");

    SessionResult result;

    // 1. Generate the workload and execute it under the memory model.
    Workload workload = config.factory(config.workload);

    // 1b. Static elision pre-pass: classify the kernels' emitting sites
    // (pseudo-sites fill in for anything the generator left unstamped)
    // and build the plan the log-generation step will consult.
    staticpass::ElisionPlan plan;
    if (config.elide) {
        telemetry::TraceSpan span("session.staticpass");
        staticpass::assignPseudoSites(workload.programs, workload.sites);
        staticpass::ClassifyOptions copt;
        copt.granularity = config.granularity;
        copt.heapBase = workload.heapBase;
        copt.heapLimit = workload.heapLimit;
        plan = staticpass::classifySites(workload.programs, workload.sites,
                                         copt, &result.siteClasses);
        result.planFingerprint = plan.fingerprint();
    }

    Rng rng(config.interleaveSeed);
    InterleaveConfig icfg;
    icfg.model = config.model;
    Trace trace = [&] {
        telemetry::TraceSpan span("session.interleave");
        return interleave(workload.programs, icfg, rng);
    }();

    // The monitored stream: what the application actually logs. With
    // elision on, AlwaysPrivate Read/Write events never reach the log —
    // only their SiteSummary stand-ins do. The oracle below still
    // replays the full trace.
    Trace elided;
    std::vector<std::vector<std::uint64_t>> original_index;
    if (config.elide) {
        telemetry::TraceSpan span("session.elide");
        elided = staticpass::applyElisionPlan(trace, plan, &result.elision,
                                              &original_index);
    }
    const Trace &monitored = config.elide ? elided : trace;

    // 2. Slice into heartbeat epochs.
    // Heartbeats fire after h*n instructions of global progress (the
    // prototype's mechanism, Section 7.1), so the epoch structure is
    // time-like: stalled threads contribute empty blocks.
    EpochLayout layout = [&] {
        telemetry::TraceSpan span("session.epoch_slice");
        return EpochLayout::byGlobalSeq(
            monitored, config.epochSize * monitored.numThreads());
    }();

    // 3. Functional butterfly ADDRCHECK run.
    AddrCheckConfig acfg;
    acfg.granularity = config.granularity;
    acfg.heapBase = workload.heapBase;
    acfg.heapLimit = workload.heapLimit;

    ButterflyAddrCheck butterfly(layout, acfg);
    {
        telemetry::TraceSpan span("session.butterfly");
        WindowSchedule().run(layout, butterfly);
    }

    // 4. Ground truth from the exact oracle over the true interleaving.
    AddrCheckOracle oracle(acfg);
    {
        telemetry::TraceSpan span("session.oracle");
        oracle.runOnTrace(trace);
    }

    if (config.elide) {
        const auto encodedBytes = [](const Trace &t) {
            std::size_t n = 0;
            for (const ThreadTrace &tt : t.threads)
                n += encodeEvents(tt.events).size();
            return n;
        };
        result.encodedBytesFull = encodedBytes(trace);
        result.encodedBytesMonitored = encodedBytes(monitored);
    }

    result.workloadName = workload.name;
    result.threads = trace.numThreads();
    result.instructions = trace.instructionCount();
    result.memoryAccesses = trace.memoryAccessCount();
    result.epochs = layout.numEpochs();
    result.butterflyErrorCount = butterfly.errors().size();
    result.oracleErrorCount = oracle.errors().size();
    // Elision shifted the monitored indices; compare on the full trace's.
    result.accuracy = compareToOracle(
        config.elide ? butterfly.errors().remapped(original_index)
                     : butterfly.errors(),
        oracle.errors(), acfg.granularity);
    result.falsePositiveRate =
        result.accuracy.falsePositiveRate(result.memoryAccesses);

    // 5. Timing for every monitoring mode.
    PerfInputs pin;
    pin.trace = &monitored; // priced on what the log actually carries
    pin.layout = &layout;
    pin.butterfly = &butterfly;
    pin.addrcheck = acfg;
    pin.costs = config.costs;
    pin.logBufferBytes = config.logBufferBytes;
    {
        telemetry::TraceSpan span("session.perf_model");
        result.perf = computePerformance(pin);
    }

    if (telemetry::enabled()) {
        const SessionMetrics &m = SessionMetrics::get();
        auto &reg = telemetry::registry();
        reg.add(m.runs);
        reg.set(m.instructions, result.instructions);
        reg.set(m.memoryAccesses, result.memoryAccesses);
        reg.set(m.epochs, result.epochs);
        reg.set(m.threads, result.threads);
        reg.set(m.butterflyErrors, result.butterflyErrorCount);
        reg.set(m.oracleErrors, result.oracleErrorCount);
        reg.set(m.falsePositives, result.accuracy.falsePositives);
        reg.set(m.falseNegatives, result.accuracy.falseNegatives);
    }
    return result;
}

} // namespace bfly
