/**
 * @file
 * Tests for the monitoring service: wire protocol round-trips and
 * hostile-input handling, session-mux admission control (queue-full and
 * global-budget shedding, hard-cap rejection), loopback conformance of
 * remote reports against in-process reference runs (all six
 * lifeguards), the pinned per-event byte charge, crash-restart replay
 * of the .bfz spool, back-pressure end-to-end, per-session telemetry
 * isolation, the slow-client partial-report path, and the adaptive
 * admission ladder: EpochHint codec hostility, forced h-change
 * conformance over the wire, and Overload shedding with tick-driven
 * recovery.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fuzz/trace_fuzzer.hpp"
#include "service/client.hpp"
#include "staticpass/classify.hpp"
#include "service/server.hpp"
#include "service/session_mux.hpp"
#include "service/wire.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/log_codec.hpp"
#include "tests/helpers.hpp"

namespace bfly::service {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------------ helpers

/** Synthetic heartbeat-marked trace: @p threads threads x @p epochs
 *  epochs of @p per_epoch events each, touching a private heap window.
 *  Odd reads target never-allocated addresses, so ADDRCHECK produces a
 *  record roughly every other event. */
Trace
makeMarkedTrace(unsigned threads, unsigned epochs, unsigned per_epoch,
                Addr heap_base)
{
    Trace trace;
    trace.threads.resize(threads);
    for (unsigned t = 0; t < threads; ++t) {
        trace.threads[t].tid = t;
        std::vector<Event> &events = trace.threads[t].events;
        const Addr base = heap_base + t * 0x1000;
        events.push_back(Event::alloc(base, 256));
        for (unsigned l = 0; l < epochs; ++l) {
            if (l > 0)
                events.push_back(Event::heartbeat());
            for (unsigned i = 0; i < per_epoch; ++i) {
                const Addr addr = base + 8 * (i % 32);
                if (i % 2 == 0)
                    events.push_back(Event::write(addr, 8));
                else // never allocated: one record per read
                    events.push_back(Event::read(addr + 0x800, 8));
            }
        }
    }
    return trace;
}

SessionSpec
addrcheckSpec(const Trace &trace, Addr heap_base)
{
    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(Lifeguard::AddrCheck);
    spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
    spec.granularity = 8;
    spec.heapBase = heap_base;
    spec.heapLimit = heap_base + 0x100000;
    return spec;
}

/** Reference run over the same heartbeat blocks the service will see. */
RemoteReport
referenceFor(const SessionSpec &spec, const Trace &marked)
{
    return analyzeReference(spec, marked,
                            EpochLayout::fromHeartbeats(marked));
}

/** Per-thread encoded logs split into (tid, bytes) chunk items. */
std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>
chunkItems(const Trace &marked, std::size_t chunk_bytes)
{
    std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> items;
    for (std::uint32_t t = 0; t < marked.numThreads(); ++t) {
        const auto bytes = encodeEvents(marked.threads[t].events);
        for (std::size_t off = 0; off < bytes.size();
             off += chunk_bytes) {
            const std::size_t n =
                std::min(chunk_bytes, bytes.size() - off);
            items.emplace_back(
                t, std::vector<std::uint8_t>(bytes.begin() + off,
                                             bytes.begin() + off + n));
        }
    }
    return items;
}

struct MuxRun
{
    bool completed = false;
    SessionResult result;
    std::uint64_t busyCount = 0;
    std::vector<BusyReason> busyReasons;
};

/** Drive one session through a bare SessionMux with a go-back-N retry
 *  loop, then wait for its completion to be published. */
MuxRun
runThroughMux(SessionMux &mux, const SessionSpec &spec,
              const Trace &marked, std::size_t chunk_bytes)
{
    MuxRun run;
    const auto items = chunkItems(marked, chunk_bytes);
    const std::uint64_t id = mux.open(spec);

    std::uint64_t i = 0;
    while (i <= items.size()) {
        BusyInfo busy;
        RejectInfo reject;
        const Admission verdict =
            i == items.size()
                ? mux.submitTraceEnd(id, i, busy, reject)
                : mux.submitChunk(id, {i, items[i].first},
                                  items[i].second, busy, reject);
        switch (verdict) {
          case Admission::Accepted:
          case Admission::Ignored:
            ++i;
            break;
          case Admission::Busy:
            ++run.busyCount;
            run.busyReasons.push_back(busy.reason);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(busy.retryMs));
            i = busy.seq;
            break;
          case Admission::Rejected:
            run.completed = true;
            run.result.failed = true;
            run.result.reject = reject;
            return run;
        }
    }

    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (std::chrono::steady_clock::now() < deadline) {
        for (SessionResult &result : mux.drainCompleted()) {
            if (result.sessionId == id) {
                run.completed = true;
                run.result = std::move(result);
                return run;
            }
        }
        std::this_thread::sleep_for(1ms);
    }
    return run;
}

std::string
tempSocketPath(const char *tag)
{
    return ::testing::TempDir() + "bfly_" + tag + "_" +
           std::to_string(::getpid()) + ".sock";
}

// ----------------------------------------------------------------- wire

TEST(Wire, PayloadsRoundTrip)
{
    SessionSpec spec;
    spec.lifeguard = 2;
    spec.memModel = 1;
    spec.numThreads = 7;
    spec.granularity = 4;
    spec.heapBase = 0x10000;
    spec.heapLimit = 0x90000;
    spec.globalH = 96;
    spec.windowEpochs = 6;
    spec.planFingerprint = 0x5157a71c00e11de5ull; // v4
    SessionSpec spec2;
    ASSERT_EQ(decodeSessionOpen(encodeSessionOpen(spec), spec2),
              DecodeStatus::Ok);
    EXPECT_EQ(spec2.lifeguard, spec.lifeguard);
    EXPECT_EQ(spec2.memModel, spec.memModel);
    EXPECT_EQ(spec2.numThreads, spec.numThreads);
    EXPECT_EQ(spec2.granularity, spec.granularity);
    EXPECT_EQ(spec2.heapBase, spec.heapBase);
    EXPECT_EQ(spec2.heapLimit, spec.heapLimit);
    EXPECT_EQ(spec2.globalH, spec.globalH);
    EXPECT_EQ(spec2.windowEpochs, spec.windowEpochs);
    EXPECT_EQ(spec2.planFingerprint, spec.planFingerprint);

    const std::vector<std::uint8_t> log = {1, 2, 3, 4, 5};
    ChunkHeader header{42, 3}, header2;
    std::span<const std::uint8_t> view;
    const auto chunk = encodeChunk(header, log);
    ASSERT_EQ(decodeChunk(chunk, header2, view), DecodeStatus::Ok);
    EXPECT_EQ(header2.seq, header.seq);
    EXPECT_EQ(header2.tid, header.tid);
    ASSERT_EQ(view.size(), log.size());
    EXPECT_TRUE(std::equal(view.begin(), view.end(), log.begin()));

    BusyInfo busy{BusyReason::GlobalBudget, 17, 8}, busy2;
    ASSERT_EQ(decodeBusy(encodeBusy(busy), busy2), DecodeStatus::Ok);
    EXPECT_EQ(busy2.reason, busy.reason);
    EXPECT_EQ(busy2.seq, busy.seq);
    EXPECT_EQ(busy2.retryMs, busy.retryMs);

    RejectInfo reject{RejectCode::CorruptLog, "bad bytes"}, reject2;
    ASSERT_EQ(decodeReject(encodeReject(reject), reject2),
              DecodeStatus::Ok);
    EXPECT_EQ(reject2.code, reject.code);
    EXPECT_EQ(reject2.message, reject.message);

    const std::vector<ErrorRecord> records = {
        {0, 12, 0x1000, ErrorKind::UnallocatedAccess, 8},
        {3, 99, 0xdeadbeef, ErrorKind::UninitializedRead, 4},
    };
    std::vector<ErrorRecord> records2;
    ASSERT_EQ(decodeErrorReport(encodeErrorReport(records), records2),
              DecodeStatus::Ok);
    ASSERT_EQ(records2.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records2[i].tid, records[i].tid);
        EXPECT_EQ(records2[i].index, records[i].index);
        EXPECT_EQ(records2[i].addr, records[i].addr);
        EXPECT_EQ(records2[i].size, records[i].size);
        EXPECT_EQ(records2[i].kind, records[i].kind);
    }

    const std::vector<Addr> sos = {0x1000, 0x2000, 0xffffffffffull};
    std::vector<Addr> sos2;
    ASSERT_EQ(decodeSos(encodeSos(sos), sos2), DecodeStatus::Ok);
    EXPECT_EQ(sos2, sos);

    SummaryInfo summary;
    summary.status = SummaryStatus::Partial;
    summary.epochs = 11;
    summary.events = 12345;
    summary.recordsTotal = 678;
    summary.sosTotal = 9;
    summary.busyCount = 3;
    summary.peakResidentEpochs = 4;
    summary.fingerprint = 0xabcdef0123456789ull;
    summary.planFingerprint = 0x5157a71c00e11de5ull; // v4 echo
    summary.summaryEvents = 4242;                    // v4
    SummaryInfo summary2;
    ASSERT_EQ(decodeSummary(encodeSummary(summary), summary2),
              DecodeStatus::Ok);
    EXPECT_EQ(summary2.status, summary.status);
    EXPECT_EQ(summary2.epochs, summary.epochs);
    EXPECT_EQ(summary2.events, summary.events);
    EXPECT_EQ(summary2.recordsTotal, summary.recordsTotal);
    EXPECT_EQ(summary2.sosTotal, summary.sosTotal);
    EXPECT_EQ(summary2.busyCount, summary.busyCount);
    EXPECT_EQ(summary2.peakResidentEpochs, summary.peakResidentEpochs);
    EXPECT_EQ(summary2.fingerprint, summary.fingerprint);
    EXPECT_EQ(summary2.planFingerprint, summary.planFingerprint);
    EXPECT_EQ(summary2.summaryEvents, summary.summaryEvents);

    std::uint64_t seq = 0;
    ASSERT_EQ(decodeTraceEnd(encodeTraceEnd(31337), seq),
              DecodeStatus::Ok);
    EXPECT_EQ(seq, 31337u);

    SessionAcceptInfo accept{77, 256 * 1024, 4}, accept2;
    ASSERT_EQ(decodeSessionAccept(encodeSessionAccept(accept), accept2),
              DecodeStatus::Ok);
    EXPECT_EQ(accept2.sessionId, accept.sessionId);
    EXPECT_EQ(accept2.queueBytesHint, accept.queueBytesHint);
    EXPECT_EQ(accept2.shardCount, accept.shardCount);
}

TEST(Wire, FrameParserReassemblesByteByByte)
{
    std::vector<std::uint8_t> stream;
    appendFrame(stream, FrameType::SessionOpen,
                encodeSessionOpen(SessionSpec{}));
    appendFrame(stream, FrameType::Heartbeat, {});
    appendFrame(stream, FrameType::TraceEnd, encodeTraceEnd(5));

    FrameParser parser;
    std::vector<Frame> frames;
    for (std::uint8_t byte : stream) {
        parser.feed({&byte, 1});
        Frame frame;
        while (parser.next(frame) == DecodeStatus::Ok)
            frames.push_back(frame);
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].type, FrameType::SessionOpen);
    EXPECT_EQ(frames[1].type, FrameType::Heartbeat);
    EXPECT_TRUE(frames[1].payload.empty());
    EXPECT_EQ(frames[2].type, FrameType::TraceEnd);
    EXPECT_EQ(parser.pendingBytes(), 0u);
}

TEST(Wire, FrameParserRejectsHostileHeaders)
{
    { // unknown frame type: sticky Corrupt
        FrameParser parser;
        const std::uint8_t bad[] = {0xFF, 1, 0, 0, 0, 7};
        parser.feed(bad);
        Frame frame;
        EXPECT_EQ(parser.next(frame), DecodeStatus::Corrupt);
        std::vector<std::uint8_t> good;
        appendFrame(good, FrameType::Heartbeat, {});
        parser.feed(good);
        EXPECT_EQ(parser.next(frame), DecodeStatus::Corrupt);
    }
    { // oversized length: Corrupt before any allocation of that size
        FrameParser parser;
        std::uint8_t bad[5];
        bad[0] = static_cast<std::uint8_t>(FrameType::LogChunk);
        const std::uint32_t huge = 0x7fffffff;
        std::memcpy(bad + 1, &huge, 4);
        parser.feed(bad);
        Frame frame;
        EXPECT_EQ(parser.next(frame), DecodeStatus::Corrupt);
    }
}

TEST(Wire, DecodersRejectTruncationAndTrailingGarbage)
{
    const auto payload = encodeSessionOpen(SessionSpec{});
    SessionSpec out;
    for (std::size_t cut = 0; cut < payload.size(); ++cut)
        EXPECT_NE(decodeSessionOpen({payload.data(), cut}, out),
                  DecodeStatus::Ok)
            << "truncated at " << cut;
    auto padded = payload;
    padded.push_back(0);
    EXPECT_EQ(decodeSessionOpen(padded, out), DecodeStatus::Corrupt);

    auto versioned = payload;
    versioned[0] = kWireVersion + 1; // version is the first byte
    EXPECT_EQ(decodeSessionOpen(versioned, out), DecodeStatus::Corrupt);

    // v3 frames lack the v4 planFingerprint tail; both ends must move
    // together, so the old version byte is rejected outright.
    versioned[0] = 3;
    EXPECT_EQ(decodeSessionOpen(versioned, out), DecodeStatus::Corrupt);
}

TEST(Wire, SummaryRejectsTruncationAndTrailingGarbage)
{
    // The Summary frame grew the v4 tail (plan fingerprint echo +
    // summary-event count); every proper prefix — including cuts inside
    // the new fields — must fail cleanly, as must trailing bytes.
    SummaryInfo info;
    info.status = SummaryStatus::Complete;
    info.epochs = 3;
    info.events = 999;
    info.fingerprint = 0x1111222233334444ull;
    info.planFingerprint = 0x5555666677778888ull;
    info.summaryEvents = 1234;
    const auto payload = encodeSummary(info);
    SummaryInfo out;
    for (std::size_t cut = 0; cut < payload.size(); ++cut)
        EXPECT_NE(decodeSummary({payload.data(), cut}, out),
                  DecodeStatus::Ok)
            << "truncated at " << cut;
    auto padded = payload;
    padded.push_back(0);
    EXPECT_EQ(decodeSummary(padded, out), DecodeStatus::Corrupt);
    ASSERT_EQ(decodeSummary(payload, out), DecodeStatus::Ok);
    EXPECT_EQ(out.planFingerprint, info.planFingerprint);
    EXPECT_EQ(out.summaryEvents, info.summaryEvents);
}

// ------------------------------------------------------------------- mux

TEST(SessionMuxTest, ShedsWhenSessionQueueIsFull)
{
    WorkerPool pool(2);
    MuxConfig config;
    config.sessionQueueBytes = 64;
    config.debugPumpDelayMs = 5; // slow consumer: shedding is guaranteed
    config.busyRetryMs = 1;
    SessionMux mux(pool, config, [] {});

    const Addr heap = 0x100000;
    const Trace marked = makeMarkedTrace(2, 6, 40, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    const RemoteReport reference = referenceFor(spec, marked);

    const MuxRun run = runThroughMux(mux, spec, marked, 48);
    ASSERT_TRUE(run.completed);
    ASSERT_FALSE(run.result.failed) << run.result.reject.message;
    EXPECT_GE(run.busyCount, 1u) << "queue never filled: test is vacuous";
    for (BusyReason reason : run.busyReasons)
        EXPECT_EQ(reason, BusyReason::SessionQueueFull);
    EXPECT_TRUE(run.result.report.identical(reference))
        << "shedding changed the analysis result";
    EXPECT_EQ(mux.globalBytes(), 0u) << "budget leaked";
    EXPECT_EQ(mux.activeSessions(), 0u);
}

TEST(SessionMuxTest, GlobalBudgetShedsOnlyWhenOthersHoldBytes)
{
    WorkerPool pool(2);
    MuxConfig config;
    config.sessionQueueBytes = 1 << 20;
    config.globalBudgetBytes = 4096;
    config.debugPumpDelayMs = 200; // park tenant A's bytes in the queue
    SessionMux mux(pool, config, [] {});

    const std::vector<std::uint8_t> big(3500, 0x00); // Nop opcodes
    const std::vector<std::uint8_t> small(1000, 0x00);

    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(Lifeguard::AddrCheck);
    spec.numThreads = 1;
    const std::uint64_t a = mux.open(spec);
    const std::uint64_t b = mux.open(spec);

    BusyInfo busy;
    RejectInfo reject;
    ASSERT_EQ(mux.submitChunk(a, {0, 0}, big, busy, reject),
              Admission::Accepted);

    // Tenant B is squeezed by A's queued bytes: transient Busy.
    ASSERT_EQ(mux.submitChunk(b, {0, 0}, small, busy, reject),
              Admission::Busy);
    EXPECT_EQ(busy.reason, BusyReason::GlobalBudget);
    EXPECT_EQ(busy.seq, 0u);

    // Tenant A alone would exceed the budget: permanent reject.
    ASSERT_EQ(mux.submitChunk(a, {1, 0}, small, busy, reject),
              Admission::Rejected);
    EXPECT_EQ(reject.code, RejectCode::TooLarge);

    mux.abort(b);
    // A failed, B aborted: the budget must drain to zero once the pump
    // notices (A's queued bytes were already released by the reject).
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (mux.globalBytes() > 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    EXPECT_EQ(mux.globalBytes(), 0u);
}

TEST(SessionMuxTest, PressuredShardStealsBudgetDonatedByIdleShard)
{
    // Two shards splitting an 8 KiB budget through a shared pool. The
    // hot shard outgrows its 4 KiB slice, sheds Busy while the pool is
    // empty, then succeeds once the idle shard's tick donates — and the
    // conservation invariant sum(slices) + spare == total holds at
    // every step.
    WorkerPool pool(2);
    MuxConfig config;
    config.sessionQueueBytes = 1 << 20;
    config.globalBudgetBytes = 8192;
    config.debugPumpDelayMs = 200; // park the bytes in the queue
    BudgetPool shared;
    SessionMux hot(pool, config, [] {}, 4096, &shared);
    SessionMux idle(pool, config, [] {}, 4096, &shared);

    auto totalBudget = [&] {
        return hot.budgetBytes() + idle.budgetBytes() +
               shared.spare.load();
    };
    EXPECT_EQ(totalBudget(), 8192u);

    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(Lifeguard::AddrCheck);
    spec.numThreads = 1;
    const std::uint64_t id = hot.open(spec);
    const std::vector<std::uint8_t> chunk(2800, 0x00); // Nop opcodes

    BusyInfo busy;
    RejectInfo reject;
    ASSERT_EQ(hot.submitChunk(id, {0, 0}, chunk, busy, reject),
              Admission::Accepted);

    // Over the slice, pool empty, but siblings hold the rest of the
    // global budget: transient Busy, not a TooLarge reject.
    ASSERT_EQ(hot.submitChunk(id, {1, 0}, chunk, busy, reject),
              Admission::Busy);
    EXPECT_EQ(busy.reason, BusyReason::GlobalBudget);
    EXPECT_EQ(hot.budgetSteals(), 0u);

    // The idle shard's reactor tick donates down to half its slice.
    idle.donateIdleBudget();
    EXPECT_EQ(idle.budgetBytes(), 2048u);
    EXPECT_EQ(idle.budgetDonatedBytes(), 2048u);
    EXPECT_EQ(shared.spare.load(), 2048u);
    EXPECT_EQ(totalBudget(), 8192u);

    // The go-back-N retry now steals the spare bytes and is admitted.
    ASSERT_EQ(hot.submitChunk(id, {1, 0}, chunk, busy, reject),
              Admission::Accepted);
    EXPECT_EQ(hot.budgetSteals(), 1u);
    EXPECT_EQ(hot.budgetStolenBytes(), 2048u);
    EXPECT_EQ(hot.budgetBytes(), 4096u + 2048u);
    EXPECT_EQ(shared.spare.load(), 0u);
    EXPECT_EQ(totalBudget(), 8192u);

    // A busy shard never donates, even when asked.
    hot.donateIdleBudget();
    EXPECT_EQ(hot.budgetBytes(), 4096u + 2048u);

    hot.abort(id);
}

TEST(SessionMuxTest, RejectsChunkBeyondSessionCap)
{
    WorkerPool pool(1);
    MuxConfig config;
    config.maxSessionBytes = 256;
    SessionMux mux(pool, config, [] {});

    SessionSpec spec;
    spec.numThreads = 1;
    const std::uint64_t id = mux.open(spec);
    const std::vector<std::uint8_t> oversized(300, 0x00);
    BusyInfo busy;
    RejectInfo reject;
    ASSERT_EQ(mux.submitChunk(id, {0, 0}, oversized, busy, reject),
              Admission::Rejected);
    EXPECT_EQ(reject.code, RejectCode::TooLarge);
    EXPECT_EQ(mux.activeSessions(), 0u);
    EXPECT_EQ(mux.globalBytes(), 0u);
}

TEST(SessionMuxTest, RejectsOutOfRangeTidAndIgnoresOutOfSequence)
{
    WorkerPool pool(1);
    SessionMux mux(pool, MuxConfig{}, [] {});
    SessionSpec spec;
    spec.numThreads = 2;
    const std::uint64_t id = mux.open(spec);
    const std::vector<std::uint8_t> bytes(8, 0x00);
    BusyInfo busy;
    RejectInfo reject;
    EXPECT_EQ(mux.submitChunk(id, {5, 0}, bytes, busy, reject),
              Admission::Ignored); // seq 5 != expected 0
    EXPECT_EQ(mux.submitChunk(id, {0, 7}, bytes, busy, reject),
              Admission::Rejected); // tid 7 >= numThreads 2
    EXPECT_EQ(reject.code, RejectCode::Protocol);
}

TEST(SessionMuxTest, ChargesDecodedEventsAtPinnedEventSize)
{
    // Satellite: the admission math (maxSessionBytes, globalBudgetBytes)
    // assumes every decoded event costs exactly sizeof(Event) == 40
    // bytes; the static_assert in session_mux.cpp pins the layout. Feed
    // a known trace without TraceEnd and check the steady-state charge.
    WorkerPool pool(2);
    SessionMux mux(pool, MuxConfig{}, [] {});

    const Addr heap = 0x400000;
    const Trace marked = makeMarkedTrace(1, 2, 16, heap);
    std::uint64_t total_events = 0;
    for (const ThreadTrace &t : marked.threads)
        total_events += t.events.size();
    ASSERT_GT(total_events, 0u);

    const std::uint64_t id = mux.open(addrcheckSpec(marked, heap));
    const auto items = chunkItems(marked, 64);
    BusyInfo busy;
    RejectInfo reject;
    for (std::uint64_t i = 0; i < items.size(); ++i)
        ASSERT_EQ(mux.submitChunk(id, {i, items[i].first},
                                  items[i].second, busy, reject),
                  Admission::Accepted);

    // Once the pump drains, the queued-bytes charge has been fully
    // converted into the decoded-event charge: 40 bytes per event, for
    // heartbeats and allocs just like loads and stores.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (mux.globalBytes() != total_events * sizeof(Event) &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    EXPECT_EQ(mux.globalBytes(), total_events * 40u);

    // Completing the session releases the whole charge.
    ASSERT_EQ(mux.submitTraceEnd(id, items.size(), busy, reject),
              Admission::Accepted);
    bool completed = false;
    while (!completed && std::chrono::steady_clock::now() < deadline) {
        for (SessionResult &result : mux.drainCompleted())
            if (result.sessionId == id) {
                completed = true;
                EXPECT_FALSE(result.failed);
            }
        std::this_thread::sleep_for(1ms);
    }
    ASSERT_TRUE(completed);
    EXPECT_EQ(mux.globalBytes(), 0u) << "budget leaked on completion";
}

// ---------------------------------------------------------------- loopback

TEST(Analyzer, TaintCheckRangeEndingAtTheLastByteCompletes)
{
    // SessionOpen accepts granularity 1, so a client can send a TaintSrc
    // whose last byte is 2^64 - 1. The server's streaming analysis must
    // finish and agree with the reference.
    const Trace trace = test::traceOf(
        {{Event::taintSrc(kNoAddr - 1, 2), Event::heartbeat(),
          Event::use(kNoAddr - 1)},
         {Event::nop(), Event::heartbeat(), Event::nop()}});
    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(Lifeguard::TaintCheck);
    spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
    spec.granularity = 1;

    const RemoteReport streamed = analyzeStreaming(spec, trace);
    EXPECT_TRUE(streamed.identical(referenceFor(spec, trace)));
    ASSERT_EQ(streamed.records.size(), 1u);
    EXPECT_EQ(streamed.records[0].kind, ErrorKind::TaintedUse);
    EXPECT_EQ(streamed.sos, (std::vector<Addr>{kNoAddr - 1, kNoAddr}));
}

TEST(MonitorService, LoopbackConformanceAcrossLifeguards)
{
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("conf");
    scfg.workers = 4;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    fuzz::FuzzerConfig fcfg;
    fcfg.seed = 20260805;
    fuzz::TraceFuzzer fuzzer(fcfg);
    for (int i = 0; i < 24; ++i) {
        const fuzz::FuzzCase fuzz_case = fuzzer.next();
        const Trace trace = fuzz_case.materialize();
        const EpochLayout layout =
            EpochLayout::byGlobalSeq(trace, fuzz_case.globalH);

        SessionSpec spec;
        spec.lifeguard = static_cast<std::uint8_t>(i % 6);
        spec.memModel = fuzz_case.model == MemModel::TSO ? 1 : 0;
        spec.numThreads =
            static_cast<std::uint32_t>(trace.numThreads());
        spec.granularity =
            spec.lifeguard == 1 || spec.lifeguard == 5 ? 4 : 8;
        spec.heapBase = fuzz_case.heapBase;
        spec.heapLimit = fuzz_case.heapLimit;

        const RemoteReport local = analyzeReference(spec, trace, layout);
        const Trace marked = withHeartbeatMarkers(trace, layout);

        MonitorClient client;
        ASSERT_TRUE(client.connectUnix(scfg.unixPath));
        const RunResult remote = client.run(spec, marked);
        ASSERT_TRUE(remote.ok)
            << "case " << fuzz_case.caseId << ": " << remote.error;
        EXPECT_TRUE(remote.report.identical(local))
            << "case " << fuzz_case.caseId << " ("
            << fuzz_case.scenario << ", lifeguard "
            << unsigned(spec.lifeguard) << ") diverged";
    }
    server.stop();
    EXPECT_EQ(server.sessionsFailed(), 0u);
    EXPECT_EQ(server.sessionsCompleted(), 24u);
}

TEST(MonitorService, ElidedSessionEchoesPlanFingerprintAndCounts)
{
    // v4 end to end: a client that ran the static elision pre-pass
    // declares its plan fingerprint in SessionOpen and streams a log
    // containing SiteSummary events. The server must analyze the
    // summarized log identically to the local reference, echo the
    // fingerprint in the Summary frame, and account the summaries it
    // decoded.
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("elide");
    scfg.workers = 2;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    // Two threads, each with a private alloc-covered block: every
    // read/write is provably invisible to the lifeguards and elides.
    Trace trace;
    trace.threads.resize(2);
    std::uint64_t g = 0;
    auto push = [&](std::size_t t, Event e) {
        e.gseq = ++g;
        trace.threads[t].tid = static_cast<ThreadId>(t);
        trace.threads[t].events.push_back(e);
    };
    for (std::size_t t = 0; t < 2; ++t) {
        const Addr base = 0x10000 + 0x10000 * t;
        push(t, Event::alloc(base, 64));
        for (int i = 0; i < 8; ++i)
            push(t, Event::write(base + 8 * i, 8));
        for (int i = 0; i < 8; ++i)
            push(t, Event::read(base + 8 * i, 8));
    }

    staticpass::SiteTable sites;
    const staticpass::ElisionPlan plan =
        staticpass::buildElisionPlan(trace, sites);
    staticpass::ElisionStats stats;
    const Trace elided = staticpass::applyElisionPlan(trace, plan,
                                                      &stats);
    ASSERT_EQ(stats.elidedEvents, 32u); // all 16 R + 16 W per program
    ASSERT_GT(stats.summaryEvents, 0u);
    ASSERT_NE(plan.fingerprint(), 0u);

    const EpochLayout layout = EpochLayout::byGlobalSeq(elided, 16);
    SessionSpec spec;
    spec.lifeguard = 0; // ADDRCHECK
    spec.numThreads = 2;
    spec.granularity = 8;
    spec.heapBase = 0x10000;
    spec.heapLimit = 0x30000;
    spec.planFingerprint = plan.fingerprint();

    const RemoteReport local = analyzeReference(spec, elided, layout);
    const Trace marked = withHeartbeatMarkers(elided, layout);

    MonitorClient client;
    ASSERT_TRUE(client.connectUnix(scfg.unixPath));
    const RunResult remote = client.run(spec, marked);
    ASSERT_TRUE(remote.ok) << remote.error;
    EXPECT_TRUE(remote.report.identical(local));
    EXPECT_GT(remote.logBytesSent, 0u);
    EXPECT_EQ(remote.summary.planFingerprint, plan.fingerprint());
    EXPECT_EQ(remote.summary.summaryEvents, stats.summaryEvents);

    server.stop();
    EXPECT_EQ(server.sessionsCompleted(), 1u);
    EXPECT_EQ(server.elisionSessions(), 1u);
    EXPECT_EQ(server.summaryEventsSeen(), stats.summaryEvents);
}

TEST(MonitorService, ConcurrentSessionsConform)
{
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("conc");
    scfg.workers = 4;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    constexpr int kThreads = 8;
    constexpr int kTracesPerThread = 3;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};

    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
        threads.emplace_back([&, w] {
            fuzz::FuzzerConfig fcfg;
            fcfg.seed = 7000 + w;
            fuzz::TraceFuzzer fuzzer(fcfg);
            for (int i = 0; i < kTracesPerThread; ++i) {
                const fuzz::FuzzCase fuzz_case = fuzzer.next();
                const Trace trace = fuzz_case.materialize();
                const EpochLayout layout =
                    EpochLayout::byGlobalSeq(trace, fuzz_case.globalH);
                SessionSpec spec;
                spec.lifeguard =
                    static_cast<std::uint8_t>((w + i) % 6);
                spec.memModel =
                    fuzz_case.model == MemModel::TSO ? 1 : 0;
                spec.numThreads =
                    static_cast<std::uint32_t>(trace.numThreads());
                spec.granularity =
                    spec.lifeguard == 1 || spec.lifeguard == 5 ? 4 : 8;
                spec.heapBase = fuzz_case.heapBase;
                spec.heapLimit = fuzz_case.heapLimit;
                const RemoteReport local =
                    analyzeReference(spec, trace, layout);
                const Trace marked =
                    withHeartbeatMarkers(trace, layout);
                MonitorClient client;
                if (!client.connectUnix(scfg.unixPath)) {
                    failures.fetch_add(1);
                    continue;
                }
                const RunResult remote = client.run(spec, marked);
                if (!remote.ok)
                    failures.fetch_add(1);
                else if (!remote.report.identical(local))
                    mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    server.stop();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(server.sessionsCompleted(),
              static_cast<std::uint64_t>(kThreads * kTracesPerThread));
}

TEST(MonitorService, ShardOfSessionCoversAllShardsOverAdjacentIds)
{
    // Connections get consecutive session ids, so the placement hash
    // must spread *adjacent* ids: over 64 of them and 4 shards, every
    // shard is hit. Also pins determinism and the single-shard case.
    constexpr std::size_t kShards = 4;
    std::vector<int> hits(kShards, 0);
    for (std::uint64_t id = 1; id <= 64; ++id) {
        const std::size_t s = MonitorServer::shardOfSession(id, kShards);
        ASSERT_LT(s, kShards);
        EXPECT_EQ(s, MonitorServer::shardOfSession(id, kShards));
        ++hits[s];
    }
    for (std::size_t s = 0; s < kShards; ++s)
        EXPECT_GT(hits[s], 0) << "shard " << s << " never hit";
    EXPECT_EQ(MonitorServer::shardOfSession(12345, 1), 0u);
}

TEST(MonitorService, MultiReactorDistributesSessionsAndSumsStats)
{
    // Three reactors behind one Unix listener: sessions spread over
    // more than one shard, every client learns the shard count from
    // SessionAccept, reports stay bit-identical to the reference, and
    // the per-shard counters sum to the aggregate accessors.
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("shards");
    scfg.workers = 4;
    scfg.shards = 3;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());
    EXPECT_EQ(server.shards(), 3u);

    const Addr heap = 0x100000;
    const Trace marked = makeMarkedTrace(2, 4, 30, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    const RemoteReport reference = referenceFor(spec, marked);

    constexpr int kSessions = 24;
    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kSessions; ++i) {
        threads.emplace_back([&] {
            MonitorClient client;
            if (!client.connectUnix(scfg.unixPath)) {
                bad.fetch_add(1);
                return;
            }
            const RunResult remote = client.run(spec, marked);
            if (!remote.ok || !remote.report.identical(reference) ||
                remote.serverShards != 3)
                bad.fetch_add(1);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(bad.load(), 0);

    const std::vector<ShardStats> stats = server.shardStats();
    ASSERT_EQ(stats.size(), 3u);
    std::uint64_t sum_completed = 0, sum_assigned = 0, sum_busy = 0;
    std::size_t shards_used = 0;
    for (const ShardStats &s : stats) {
        sum_completed += s.completed;
        sum_assigned += s.sessionsAssigned;
        sum_busy += s.busySent;
        if (s.sessionsAssigned > 0)
            ++shards_used;
    }
    EXPECT_EQ(sum_completed, static_cast<std::uint64_t>(kSessions));
    EXPECT_EQ(sum_completed, server.sessionsCompleted());
    EXPECT_EQ(sum_assigned, static_cast<std::uint64_t>(kSessions));
    EXPECT_EQ(sum_busy, server.busySent());
    EXPECT_GE(shards_used, 2u)
        << "placement hash parked every session on one shard";
    server.stop();
    EXPECT_EQ(server.sessionsFailed(), 0u);
}

namespace {

/** Crash-restart durability: each marked trace is spooled to a .bfz
 *  log file before it is sent. After the server "crashes" (stop, all
 *  in-memory state discarded) a fresh server on the same path must
 *  reproduce a bit-identical report — same records, SOS, and summary
 *  fingerprint — from the reloaded spool, across all six lifeguards.
 *  Runs at @p shards reactors: the replay must land on whatever shard
 *  the new server picks and still fingerprint identically. */
void
runCrashRestartSpoolReplay(std::size_t shards, const char *tag)
{
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath(tag);
    scfg.workers = 2;
    scfg.shards = shards;

    fuzz::FuzzerConfig fcfg;
    fcfg.seed = 20260808;
    fuzz::TraceFuzzer fuzzer(fcfg);

    struct Spooled
    {
        std::string path;
        SessionSpec spec;
        RemoteReport report;
        std::uint64_t fingerprint = 0;
    };
    std::vector<Spooled> spool;

    {
        MonitorServer server(scfg);
        ASSERT_TRUE(server.start());
        for (int i = 0; i < 12; ++i) {
            const fuzz::FuzzCase fuzz_case = fuzzer.next();
            const Trace trace = fuzz_case.materialize();
            const EpochLayout layout =
                EpochLayout::byGlobalSeq(trace, fuzz_case.globalH);

            Spooled s;
            s.spec.lifeguard = static_cast<std::uint8_t>(i % 6);
            s.spec.memModel = fuzz_case.model == MemModel::TSO ? 1 : 0;
            s.spec.numThreads =
                static_cast<std::uint32_t>(trace.numThreads());
            s.spec.granularity =
                s.spec.lifeguard == 1 || s.spec.lifeguard == 5 ? 4 : 8;
            s.spec.heapBase = fuzz_case.heapBase;
            s.spec.heapLimit = fuzz_case.heapLimit;

            const Trace marked = withHeartbeatMarkers(trace, layout);
            s.path = ::testing::TempDir() + "bfly_spool_" + tag + "_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(i) + ".bfz";
            ASSERT_TRUE(saveTrace(marked, s.path));

            MonitorClient client;
            ASSERT_TRUE(client.connectUnix(scfg.unixPath));
            const RunResult remote = client.run(s.spec, marked);
            ASSERT_TRUE(remote.ok)
                << "case " << fuzz_case.caseId << ": " << remote.error;
            s.report = remote.report;
            s.fingerprint = remote.summary.fingerprint;
            spool.push_back(std::move(s));
        }
        server.stop(); // the crash: every in-memory session is gone
    }

    // The spool survives the crash. The codec drops gseq (a stored log
    // has no global order), but the heartbeat markers carry the epoch
    // structure, so the replay slices identically by construction.
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());
    for (const Spooled &s : spool) {
        const Trace replay = loadTrace(s.path);
        MonitorClient client;
        ASSERT_TRUE(client.connectUnix(scfg.unixPath));
        const RunResult remote = client.run(s.spec, replay);
        ASSERT_TRUE(remote.ok) << s.path << ": " << remote.error;
        EXPECT_EQ(remote.summary.fingerprint, s.fingerprint) << s.path;
        EXPECT_TRUE(remote.report.identical(s.report))
            << s.path << " replay diverged after restart";
        std::remove(s.path.c_str());
    }
    server.stop();
    EXPECT_EQ(server.sessionsFailed(), 0u);
}

} // namespace

TEST(MonitorService, CrashRestartSpoolReplayKeepsFingerprint)
{
    runCrashRestartSpoolReplay(1, "crash");
}

TEST(MonitorService, CrashRestartSpoolReplayKeepsFingerprintSharded)
{
    runCrashRestartSpoolReplay(2, "crash2");
}

TEST(MonitorService, ShedsUnderBackPressureAndStillConforms)
{
    // Satellite: EpochStream back-pressure under service load. A slow
    // pump plus a tiny ingest queue forces Busy sheds; the client's
    // go-back-N rewind must deliver a byte-identical report anyway.
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("bp");
    scfg.workers = 2;
    scfg.mux.sessionQueueBytes = 512;
    scfg.mux.debugPumpDelayMs = 2;
    scfg.mux.busyRetryMs = 1;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    const Addr heap = 0x200000;
    const Trace marked = makeMarkedTrace(2, 8, 60, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    const RemoteReport reference = referenceFor(spec, marked);

    ClientConfig ccfg;
    ccfg.chunkBytes = 256; // many small chunks overrun the 512B queue
    MonitorClient client(ccfg);
    ASSERT_TRUE(client.connectUnix(scfg.unixPath));
    const RunResult remote = client.run(spec, marked);
    ASSERT_TRUE(remote.ok) << remote.error;
    EXPECT_GE(remote.busyRetries, 1u)
        << "server never shed: back-pressure untested";
    EXPECT_EQ(remote.summary.busyCount, remote.busyRetries);
    EXPECT_TRUE(remote.report.identical(reference))
        << "go-back-N replay diverged from the reference";
    server.stop();
    EXPECT_GE(server.busySent(), 1u);
    EXPECT_EQ(server.globalBytes(), 0u) << "budget leaked";
}

TEST(MonitorService, SessionTelemetryIsIsolatedPerSession)
{
    telemetry::setEnabled(true);
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("tel");
    scfg.workers = 2;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    const Addr heap = 0x300000;
    const Trace big = makeMarkedTrace(2, 8, 50, heap);
    const Trace small = makeMarkedTrace(1, 2, 10, heap);

    auto runOne = [&](const Trace &marked) {
        const SessionSpec spec = addrcheckSpec(marked, heap);
        MonitorClient client;
        ASSERT_TRUE(client.connectUnix(scfg.unixPath));
        const RunResult remote = client.run(spec, marked);
        ASSERT_TRUE(remote.ok) << remote.error;
    };
    auto totalEvents = [](const Trace &marked) {
        std::uint64_t n = 0;
        for (const ThreadTrace &t : marked.threads)
            n += t.events.size();
        return n;
    };

    runOne(big);
    runOne(small);
    // The last completed session's registry holds *only* that session's
    // counts — a shared registry would show big+small accumulated.
    const telemetry::RegistrySnapshot snapshot =
        server.lastSessionMetrics();
    EXPECT_EQ(snapshot.value("bfly.service.session.events"),
              totalEvents(small));
    EXPECT_LT(snapshot.value("bfly.service.session.events"),
              totalEvents(big));
    EXPECT_GT(snapshot.value("bfly.service.session.chunks"), 0u);
    server.stop();
}

TEST(MonitorService, SessionRegistryTimesDecodeAndAnalysis)
{
    // Per-session stage times: what the pump spent decoding chunks into
    // epoch blocks, and what the analysis task spent on the window.
    telemetry::setEnabled(true);
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("stages");
    scfg.workers = 2;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    const Addr heap = 0x300000;
    const Trace marked = makeMarkedTrace(2, 8, 50, heap);
    MonitorClient client;
    ASSERT_TRUE(client.connectUnix(scfg.unixPath));
    const RunResult remote = client.run(addrcheckSpec(marked, heap), marked);
    ASSERT_TRUE(remote.ok) << remote.error;

    const telemetry::RegistrySnapshot snapshot =
        server.lastSessionMetrics();
    EXPECT_GT(snapshot.value("bfly.service.session.decode_ns"), 0u);
    EXPECT_GT(snapshot.value("bfly.service.session.analysis_ns"), 0u);
    server.stop();
}

TEST(MonitorService, SlowClientGetsTruncatedReportWithPartialStatus)
{
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("partial");
    scfg.workers = 2;
    scfg.maxOutboundBytes = 4096; // one big ErrorReport cannot fit
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    // ~1500 records encode to well over the outbound cap.
    const Addr heap = 0x400000;
    const Trace marked = makeMarkedTrace(1, 6, 500, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    const RemoteReport reference = referenceFor(spec, marked);
    ASSERT_GT(reference.records.size(), 1000u);

    MonitorClient client;
    ASSERT_TRUE(client.connectUnix(scfg.unixPath));
    const RunResult remote = client.run(spec, marked);
    ASSERT_TRUE(remote.ok) << remote.error;
    EXPECT_EQ(remote.summary.status, SummaryStatus::Partial);
    EXPECT_EQ(remote.summary.recordsTotal, reference.records.size())
        << "Summary must report the true total even when truncated";
    EXPECT_LT(remote.report.records.size(), reference.records.size());
    EXPECT_EQ(remote.summary.fingerprint, reference.fingerprint)
        << "the fingerprint still witnesses the full report";
    server.stop();
    EXPECT_EQ(server.partialReports(), 1u);
}

// ---------------------------------------------------------------- adaptive

TEST(Wire, EpochHintRoundTripChainsAcrossFrames)
{
    EpochHintInfo first;
    first.effectiveH = 8;
    first.spans = {1, 2, 4, 8, 1};
    EpochHintInfo out;
    ASSERT_EQ(decodeEpochHint(encodeEpochHint(first), out),
              DecodeStatus::Ok);
    EXPECT_EQ(out.effectiveH, 8u);
    EXPECT_EQ(out.spans, first.spans);

    // A session's spans may be split over several frames; the decoder
    // appends, so chaining is just calling it again with the same out.
    EpochHintInfo second;
    second.effectiveH = 8;
    second.spans = {2, 2};
    ASSERT_EQ(decodeEpochHint(encodeEpochHint(second), out),
              DecodeStatus::Ok);
    const std::vector<std::uint32_t> chained = {1, 2, 4, 8, 1, 2, 2};
    EXPECT_EQ(out.spans, chained);
}

TEST(Wire, EpochHintRejectsHostileSpans)
{
    EpochHintInfo out;

    // A span of zero source epochs is meaningless (spans partition the
    // marker epochs): hand-rolled varints {effectiveH=1, count=1, k=0}.
    const std::uint8_t zero_span[] = {0x01, 0x01, 0x00};
    EXPECT_EQ(decodeEpochHint(zero_span, out), DecodeStatus::Corrupt);

    // A single span claiming an absurd merge width.
    EpochHintInfo absurd;
    absurd.spans = {(1u << 20) + 1};
    EXPECT_EQ(decodeEpochHint(encodeEpochHint(absurd), out),
              DecodeStatus::Corrupt);

    // A count beyond the per-frame bound, before any spans follow.
    const std::uint8_t huge_count[] = {0x01, 0x81, 0x80, 0x04};
    EXPECT_EQ(decodeEpochHint(huge_count, out), DecodeStatus::Corrupt);

    // Truncation anywhere must not decode cleanly.
    EpochHintInfo valid;
    valid.effectiveH = 4;
    valid.spans = {1, 4, 2};
    const auto payload = encodeEpochHint(valid);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        EpochHintInfo partial;
        EXPECT_NE(decodeEpochHint({payload.data(), cut}, partial),
                  DecodeStatus::Ok)
            << "truncated at " << cut;
    }

    // Overload joined the reject codes with the graduated ladder.
    RejectInfo overload{RejectCode::Overload, "shard shedding load"};
    RejectInfo overload2;
    ASSERT_EQ(decodeReject(encodeReject(overload), overload2),
              DecodeStatus::Ok);
    EXPECT_EQ(overload2.code, RejectCode::Overload);
    EXPECT_EQ(overload2.message, overload.message);
}

TEST(SessionMuxTest, AdaptiveLadderShedsNewSessionsAndRecovers)
{
    WorkerPool pool(2);
    MuxConfig config;
    config.adaptive = true;
    config.sessionQueueBytes = 256;
    config.debugPumpDelayMs = 200; // park queued bytes: samples stay hot
    config.busyRetryMs = 0;
    config.controller.upThreshold = 0.5;
    config.controller.downThreshold = 0.4;
    config.controller.escalateAfter = 1; // every hot sample climbs
    config.controller.recoverAfter = 1;  // every cool sample descends
    SessionMux mux(pool, config, [] {});

    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(Lifeguard::AddrCheck);
    spec.numThreads = 1;
    const std::uint64_t id = mux.open(spec);
    EXPECT_FALSE(mux.shedNewSessions());

    // Each in-sequence submission is one ladder sample; with the queue
    // parked over the hot threshold the shard climbs one rung per
    // attempt (Busy verdicts resubmit the same seq, as go-back-N does).
    const std::vector<std::uint8_t> chunk(200, 0x00); // Nop opcodes
    BusyInfo busy;
    RejectInfo reject;
    std::uint64_t seq = 0;
    for (int i = 0; i < 32 && !mux.shedNewSessions(); ++i) {
        const Admission verdict =
            mux.submitChunk(id, {seq, 0}, chunk, busy, reject);
        ASSERT_NE(verdict, Admission::Rejected) << reject.message;
        if (verdict == Admission::Accepted)
            ++seq;
    }
    EXPECT_TRUE(mux.shedNewSessions());
    EXPECT_EQ(mux.shardLevel(), DegradeLevel::Shed);

    // The abusive tenant goes away and its bytes are reclaimed. No
    // admission samples can arrive anymore — without the reactor tick
    // the shard would refuse sessions forever.
    mux.abort(id);
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (mux.globalBytes() > 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    ASSERT_EQ(mux.globalBytes(), 0u);

    while ((mux.shedNewSessions() ||
            mux.shardLevel() != DegradeLevel::Normal) &&
           std::chrono::steady_clock::now() < deadline) {
        mux.tickShardController(); // rate-limited to one sample / 100ms
        std::this_thread::sleep_for(5ms);
    }
    EXPECT_FALSE(mux.shedNewSessions());
    EXPECT_EQ(mux.shardLevel(), DegradeLevel::Normal)
        << "idle ticks never walked the ladder back down";
}

TEST(MonitorService, AdaptiveServerConformsAcrossForcedHChanges)
{
    // Tentpole conformance, loopback edition: a force-cycled adaptive
    // server changes the realized epoch width several times per session
    // and advertises the slicing in EpochHint frames; rebuilding that
    // layout locally must reproduce the report bit for bit.
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("adaptive");
    scfg.workers = 4;
    scfg.mux.adaptive = true;
    scfg.mux.adaptiveForceCycle = true; // widths 1→2→4→8 per group
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    const Addr heap = 0x500000;
    const Trace marked = makeMarkedTrace(2, 24, 20, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    const std::size_t source_epochs =
        EpochLayout::fromHeartbeats(marked).numEpochs();

    for (int i = 0; i < 6; ++i) {
        MonitorClient client;
        ASSERT_TRUE(client.connectUnix(scfg.unixPath));
        const RunResult remote = client.run(spec, marked);
        ASSERT_TRUE(remote.ok) << remote.error;

        ASSERT_FALSE(remote.epochSpans.empty())
            << "adaptive server sent no EpochHint";
        std::size_t covered = 0;
        for (const std::uint32_t k : remote.epochSpans)
            covered += k;
        ASSERT_EQ(covered, source_epochs)
            << "advertised spans do not partition the marker epochs";
        EXPECT_GE(remote.hChanges(), 3u);
        EXPECT_EQ(remote.effectiveH, 8u);
        EXPECT_EQ(remote.report.epochs, remote.epochSpans.size());

        const RemoteReport reference = analyzeReference(
            spec, marked,
            EpochLayout::coalescedFromHeartbeats(marked,
                                                 remote.epochSpans));
        EXPECT_TRUE(remote.report.identical(reference))
            << "session " << i << " diverged across h-changes";
    }
    server.stop();
    EXPECT_EQ(server.sessionsFailed(), 0u);
    EXPECT_EQ(server.sessionsCompleted(), 6u);
    EXPECT_GE(server.hintEchoes(), 1u)
        << "no client echo ever reached the server";
}

TEST(MonitorService, SaturatedAdaptiveShardTurnsAwayNewSessions)
{
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("shed");
    scfg.workers = 2;
    scfg.mux.adaptive = true;
    scfg.mux.sessionQueueBytes = 256;
    scfg.mux.debugPumpDelayMs = 100;
    scfg.mux.busyRetryMs = 1;
    scfg.mux.controller.upThreshold = 0.5;
    scfg.mux.controller.escalateAfter = 1;
    scfg.mux.controller.recoverAfter = 1 << 20; // pin Shed for the test
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    // Sacrificial tenant: a small queue plus a slow pump makes every
    // go-back-N retry a hot ladder sample, so the shard escalates to
    // Shed while the client burns its (tiny) Busy retry allowance.
    const Addr heap = 0x600000;
    const Trace big = makeMarkedTrace(2, 8, 60, heap);
    ClientConfig ccfg;
    ccfg.chunkBytes = 200;
    ccfg.maxBusyRetries = 40;
    {
        MonitorClient hog(ccfg);
        ASSERT_TRUE(hog.connectUnix(scfg.unixPath));
        const RunResult res = hog.run(addrcheckSpec(big, heap), big);
        EXPECT_FALSE(res.ok) << "hog was supposed to give up on Busy";
    }

    // A fresh tenant is refused at the door with Overload, and the
    // client surfaces retry-later semantics, not a protocol failure.
    const Trace small = makeMarkedTrace(1, 2, 10, heap);
    MonitorClient late;
    ASSERT_TRUE(late.connectUnix(scfg.unixPath));
    const RunResult refused = late.run(addrcheckSpec(small, heap), small);
    EXPECT_FALSE(refused.ok);
    EXPECT_TRUE(refused.overloaded) << refused.error;

    const std::vector<ShardStats> stats = server.shardStats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].degradeLevel, DegradeLevel::Shed);
    server.stop();
    EXPECT_GE(server.sessionsShed(), 1u);
    EXPECT_GE(server.busySent(), 1u);
}

TEST(MonitorService, GarbageBytesAreRejectedWithProtocolError)
{
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("garbage");
    scfg.workers = 1;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, scfg.unixPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::uint8_t garbage[] = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
    ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
              static_cast<ssize_t>(sizeof(garbage)));

    FrameParser parser;
    Frame frame;
    DecodeStatus status = DecodeStatus::NeedMore;
    std::uint8_t buf[4096];
    for (int spins = 0; spins < 1000 && status != DecodeStatus::Ok;
         ++spins) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        parser.feed({buf, static_cast<std::size_t>(n)});
        status = parser.next(frame);
    }
    ::close(fd);
    ASSERT_EQ(status, DecodeStatus::Ok);
    EXPECT_EQ(frame.type, FrameType::Reject);
    RejectInfo reject;
    ASSERT_EQ(decodeReject(frame.payload, reject), DecodeStatus::Ok);
    EXPECT_EQ(reject.code, RejectCode::Protocol);
    server.stop();
}

} // namespace
} // namespace bfly::service
