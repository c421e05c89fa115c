#include "butterfly/window.hpp"

#include <cstdint>

#include "telemetry/metrics.hpp"
#include "telemetry/trace_span.hpp"

namespace bfly {

namespace {

/** Pre-interned names/ids for the schedule's telemetry (one-time). */
struct WindowTelemetry
{
    std::uint32_t epochSpan;
    std::uint32_t pass1Span;
    std::uint32_t pass2Span;
    std::uint32_t blockPass1Span;
    std::uint32_t blockPass2Span;
    std::uint32_t finalizeSpan;
    std::uint32_t epochArg;
    telemetry::MetricId epochsDone;
    telemetry::MetricId pass1Blocks;
    telemetry::MetricId pass2Blocks;

    static const WindowTelemetry &
    get()
    {
        static const WindowTelemetry w = [] {
            auto &t = telemetry::tracer();
            auto &r = telemetry::registry();
            WindowTelemetry s;
            s.epochSpan = t.internName("window.epoch");
            s.pass1Span = t.internName("window.pass1");
            s.pass2Span = t.internName("window.pass2");
            s.blockPass1Span = t.internName("block.pass1");
            s.blockPass2Span = t.internName("block.pass2");
            s.finalizeSpan = t.internName("window.sos_update");
            s.epochArg = t.internName("epoch");
            s.epochsDone = r.counter("bfly.window.epochs_finalized");
            s.pass1Blocks = r.counter("bfly.window.pass1_blocks");
            s.pass2Blocks = r.counter("bfly.window.pass2_blocks");
            return s;
        }();
        return w;
    }
};

/** A materialized layout as a block source: every epoch is resident.
 *  (EpochStream is the other source: admit, read, retire.) */
struct LayoutSource
{
    const EpochLayout &layout;

    void acquire(EpochId) {}
    void retire(EpochId) {}
    BlockView block(EpochId l, ThreadId t) const { return layout.block(l, t); }
};

/**
 * The step loop shared by both sources. Step l: pass 1 of epoch l, then
 * steps 2-4 (pass 2 + SOS update) of epoch l-1, whose wings l-2..l are
 * now summarized; the final epoch's wings end at the trace boundary.
 * @return block passes and finalizes run.
 */
template <typename Source>
std::size_t
runSteps(Source &source, std::size_t nepochs, std::size_t nthreads,
         AnalysisDriver &driver)
{
    const bool traced = telemetry::enabled();
    const WindowTelemetry *w = traced ? &WindowTelemetry::get() : nullptr;
    const std::uint32_t arg = traced ? w->epochArg : telemetry::kNoMetric;

    // One pass over the blocks of epoch l. Block t's span goes to
    // timeline track t+1 (track 0 is the loop itself).
    auto pass = [&](EpochId l, bool second) {
        telemetry::TraceSpan span(traced ? (second ? w->pass2Span
                                                   : w->pass1Span)
                                         : 0,
                                  arg, l);
        driver.beginPass(l, second);
        if (traced)
            telemetry::registry().add(second ? w->pass2Blocks
                                             : w->pass1Blocks,
                                      nthreads);
        for (ThreadId t = 0; t < nthreads; ++t) {
            const BlockView block = source.block(l, t);
            telemetry::ScopedTid tid(static_cast<std::uint16_t>(t + 1));
            telemetry::TraceSpan block_span(
                traced ? (second ? w->blockPass2Span : w->blockPass1Span)
                       : 0,
                arg, l);
            if (second)
                driver.pass2(block);
            else
                driver.pass1(block);
        }
    };
    auto settle = [&](EpochId l) {
        pass(l, true);
        {
            telemetry::TraceSpan span(traced ? w->finalizeSpan : 0, arg,
                                      l);
            driver.finalizeEpoch(l);
        }
        if (traced)
            telemetry::registry().add(w->epochsDone);
        source.retire(l);
    };

    for (EpochId l = 0; l < nepochs; ++l) {
        telemetry::TraceSpan step(traced ? w->epochSpan : 0, arg, l);
        source.acquire(l);
        pass(l, false);
        if (l >= 1)
            settle(l - 1);
    }
    if (nepochs >= 1)
        settle(nepochs - 1);
    return nepochs * (2 * nthreads + 1);
}

} // namespace

void
WindowSchedule::run(const EpochLayout &layout, AnalysisDriver &driver) const
{
    LayoutSource source{layout};
    runSteps(source, layout.numEpochs(), layout.numThreads(), driver);
}

PipelineStats
WindowSchedule::runPipelined(EpochStream &stream,
                             AnalysisDriver &driver) const
{
    PipelineStats stats;
    stats.tasksRun =
        runSteps(stream, stream.numEpochs(), stream.numThreads(), driver);
    stats.epochsFinalized = stream.numEpochs();
    stats.peakResidentEpochs = stream.peakResidentEpochs();
    stats.producerStalls = stream.producerStalls();
    return stats;
}

} // namespace bfly
