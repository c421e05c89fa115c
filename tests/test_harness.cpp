/**
 * @file
 * Tests for the monitoring harness: the performance model's structural
 * properties (who gets faster with what) and end-to-end sessions.
 */

#include <string>

#include <gtest/gtest.h>

#include "butterfly/window.hpp"
#include "common/rng.hpp"
#include "harness/session.hpp"
#include "lifeguards/addrcheck_oracle.hpp"
#include "lifeguards/report.hpp"
#include "trace/epoch_slicer.hpp"

namespace bfly {
namespace {

SessionConfig
baseConfig(WorkloadFactory factory, unsigned threads,
           std::size_t epoch = 512)
{
    SessionConfig cfg;
    cfg.factory = factory;
    cfg.workload.numThreads = threads;
    cfg.workload.instrPerThread = 20000;
    cfg.workload.phaseEvents = 2000;
    cfg.workload.warmupNops = 2000;
    cfg.epochSize = epoch;
    return cfg;
}

TEST(Session, RunsEndToEndWithSaneOutputs)
{
    const SessionResult r = runSession(baseConfig(makeFft, 4));
    EXPECT_EQ(r.workloadName, "fft");
    EXPECT_EQ(r.threads, 4u);
    EXPECT_GT(r.instructions, 40000u);
    EXPECT_GT(r.memoryAccesses, 0u);
    EXPECT_GT(r.epochs, 4u);
    EXPECT_EQ(r.accuracy.falseNegatives, 0u);
    EXPECT_GT(r.perf.sequentialBaseline, 0u);
    EXPECT_GT(r.perf.timesliced.normalized, 0.0);
    EXPECT_GT(r.perf.butterfly.normalized, 0.0);
    EXPECT_GT(r.perf.parallelNoMonitor.normalized, 0.0);
}

TEST(Session, ParallelNoMonitorBeatsSequential)
{
    const SessionResult r = runSession(baseConfig(makeFft, 4));
    EXPECT_LT(r.perf.parallelNoMonitor.normalized, 1.0);
}

TEST(Session, ButterflyScalesWithThreads)
{
    const SessionResult r2 = runSession(baseConfig(makeFft, 2));
    const SessionResult r8 = runSession(baseConfig(makeFft, 8));
    EXPECT_LT(r8.perf.butterfly.normalized,
              r2.perf.butterfly.normalized);
}

TEST(Session, TimeslicedDoesNotScaleWithThreads)
{
    const SessionResult r2 = runSession(baseConfig(makeFft, 2));
    const SessionResult r8 = runSession(baseConfig(makeFft, 8));
    // Timesliced monitoring serializes everything: within a generous
    // tolerance its normalized time must not improve with threads.
    EXPECT_GT(r8.perf.timesliced.normalized,
              0.8 * r2.perf.timesliced.normalized);
}

TEST(Session, LargerEpochsAmortizeButterflyOverheadForCleanWorkloads)
{
    const SessionResult small =
        runSession(baseConfig(makeFft, 4, 256));
    const SessionResult large =
        runSession(baseConfig(makeFft, 4, 2048));
    EXPECT_LT(large.perf.butterfly.normalized,
              small.perf.butterfly.normalized);
}

TEST(Session, ElideModeKeepsZeroFalseNegativesAndShrinksTheLog)
{
    SessionConfig cfg = baseConfig(makeOcean, 4);
    cfg.elide = true;
    const SessionResult r = runSession(cfg);
    // Zero-FN is the elision soundness contract; the oracle runs on
    // the *full* trace, so any event elision mistake shows up here.
    EXPECT_EQ(r.accuracy.falseNegatives, 0u);
    EXPECT_NE(r.planFingerprint, 0u);
    // OCEAN is the ADDRCHECK stress workload the paper reproduction
    // gates on: the bulk of its accesses are provably private.
    EXPECT_GE(r.elision.elidedFraction(), 0.30);
    EXPECT_EQ(r.elision.inputEvents,
              r.elision.retainedEvents + r.elision.elidedEvents);
    EXPECT_GT(r.elision.summaryEvents, 0u);
    EXPECT_LT(r.encodedBytesMonitored, r.encodedBytesFull);
}

TEST(Session, ElideModeOffLeavesElisionFieldsZero)
{
    const SessionResult r = runSession(baseConfig(makeFft, 2));
    EXPECT_EQ(r.planFingerprint, 0u);
    EXPECT_EQ(r.elision.elidedEvents, 0u);
    EXPECT_EQ(r.encodedBytesFull, 0u);
    EXPECT_EQ(r.encodedBytesMonitored, 0u);
}

/** What runSession reports about ADDRCHECK's accuracy. */
struct SessionAccuracy
{
    std::size_t butterflyErrorCount = 0;
    std::size_t oracleErrorCount = 0;
    AccuracyReport accuracy;
    double falsePositiveRate = 0.0;
};

SessionAccuracy
accuracyOf(const SessionResult &r)
{
    return {r.butterflyErrorCount, r.oracleErrorCount, r.accuracy,
            r.falsePositiveRate};
}

/**
 * The same numbers for @p config on the streamed path: the trace
 * runSession builds (same workload, interleaving seed and model, no
 * elision) analyzed by the step loop over an EpochStream with
 * runSession's epoch size, instead of over a materialized layout.
 */
SessionAccuracy
pipelinedAccuracy(const SessionConfig &config)
{
    const Workload w = config.factory(config.workload);
    Rng rng(config.interleaveSeed);
    InterleaveConfig icfg;
    icfg.model = config.model;
    const Trace trace = interleave(w.programs, icfg, rng);

    AddrCheckConfig acfg;
    acfg.granularity = config.granularity;
    acfg.heapBase = w.heapBase;
    acfg.heapLimit = w.heapLimit;

    EpochStream::Config scfg;
    scfg.globalH = config.epochSize * trace.numThreads();
    EpochStream stream(trace, scfg);
    ButterflyAddrCheck butterfly(trace.numThreads(), acfg);
    WindowSchedule().runPipelined(stream, butterfly);

    AddrCheckOracle oracle(acfg);
    oracle.runOnTrace(trace);

    SessionAccuracy out;
    out.butterflyErrorCount = butterfly.errors().size();
    out.oracleErrorCount = oracle.errors().size();
    out.accuracy = compareToOracle(butterfly.errors(), oracle.errors(),
                                   acfg.granularity);
    out.falsePositiveRate =
        out.accuracy.falsePositiveRate(trace.memoryAccessCount());
    return out;
}

void
expectSameAccuracy(const SessionAccuracy &seq, const SessionAccuracy &par)
{
    EXPECT_EQ(seq.butterflyErrorCount, par.butterflyErrorCount);
    EXPECT_EQ(seq.oracleErrorCount, par.oracleErrorCount);
    EXPECT_EQ(seq.accuracy.truePositives, par.accuracy.truePositives);
    EXPECT_EQ(seq.accuracy.falsePositives, par.accuracy.falsePositives);
    EXPECT_EQ(seq.accuracy.falseNegatives, par.accuracy.falseNegatives);
    EXPECT_EQ(seq.falsePositiveRate, par.falsePositiveRate);
}

TEST(Session, ParallelPassesProduceSameAccuracy)
{
    const SessionConfig cfg = baseConfig(makeBarnes, 4);
    const SessionAccuracy seq = accuracyOf(runSession(cfg));
    const SessionAccuracy par = pipelinedAccuracy(cfg);
    expectSameAccuracy(seq, par);
    EXPECT_EQ(seq.accuracy.falseNegatives, 0u);
    EXPECT_EQ(par.accuracy.falseNegatives, 0u);
}

TEST(SessionPipeline, PipelineModeMatchesSequentialAcrossSeeds)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SessionConfig cfg;
        cfg.factory = makeRandomMix;
        cfg.workload.numThreads = 4;
        cfg.workload.instrPerThread = 3000;
        cfg.workload.seed = seed;
        cfg.epochSize = 256;
        SCOPED_TRACE("seed " + std::to_string(seed));
        const SessionResult seq = runSession(cfg);
        EXPECT_GT(seq.butterflyErrorCount, 0u);
        expectSameAccuracy(accuracyOf(seq), pipelinedAccuracy(cfg));
    }
}

TEST(Session, TsoExecutionAlsoHasZeroFalseNegatives)
{
    SessionConfig cfg = baseConfig(makeOcean, 4);
    cfg.model = MemModel::TSO;
    const SessionResult r = runSession(cfg);
    EXPECT_EQ(r.accuracy.falseNegatives, 0u);
}

TEST(Session, FalsePositiveRateMatchesCounts)
{
    SessionConfig cfg = baseConfig(makeOcean, 4, 4096);
    const SessionResult r = runSession(cfg);
    EXPECT_NEAR(r.falsePositiveRate,
                static_cast<double>(r.accuracy.falsePositives) /
                    r.memoryAccesses,
                1e-12);
}

TEST(Session, AppStallsAppearWhenLifeguardIsBottleneck)
{
    // Butterfly monitoring with its per-event costs is slower than the
    // app; the bounded log buffer must back-pressure the app.
    const SessionResult r = runSession(baseConfig(makeFft, 2));
    EXPECT_GT(r.perf.butterfly.timing.appStallCycles, 0u);
}

TEST(PerfModel, FpCostSlowsButterflyDown)
{
    SessionConfig cfg = baseConfig(makeOcean, 4, 4096);
    cfg.costs.fpCost = 0;
    const SessionResult cheap = runSession(cfg);
    cfg.costs.fpCost = 50000;
    const SessionResult costly = runSession(cfg);
    ASSERT_GT(costly.accuracy.falsePositives, 0u);
    EXPECT_GT(costly.perf.butterfly.timing.totalCycles,
              cheap.perf.butterfly.timing.totalCycles);
}

TEST(PerfModel, BarrierCostPenalizesSmallEpochs)
{
    SessionConfig cfg = baseConfig(makeFft, 4, 256);
    cfg.costs.barrierCost = 0;
    const SessionResult free_barriers = runSession(cfg);
    cfg.costs.barrierCost = 5000;
    const SessionResult costly = runSession(cfg);
    EXPECT_GT(costly.perf.butterfly.timing.totalCycles,
              free_barriers.perf.butterfly.timing.totalCycles);
}

TEST(PerfModel, TinyLogBufferStallsTheApp)
{
    SessionConfig cfg = baseConfig(makeFft, 2);
    cfg.logBufferBytes = 64;
    const SessionResult tiny = runSession(cfg);
    cfg.logBufferBytes = 64 * 1024;
    const SessionResult big = runSession(cfg);
    EXPECT_GE(tiny.perf.butterfly.timing.appStallCycles,
              big.perf.butterfly.timing.appStallCycles);
}

} // namespace
} // namespace bfly
