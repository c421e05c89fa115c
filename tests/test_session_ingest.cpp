/**
 * @file
 * A session's log decoded straight into epoch blocks (BlockIngest):
 * however the per-thread logs are cut into chunks — mid-varint, right at
 * a marker, one byte at a time — the adopted layout is block for block
 * EpochLayout::fromHeartbeats of the reassembled trace (and, adaptive,
 * coalescedFromHeartbeats over the realized spans). Through a real
 * SessionMux, an invalid opcode anywhere ends the session with
 * CorruptLog and hands its whole budget back.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "service/session_mux.hpp"
#include "trace/log_codec.hpp"

namespace bfly {
namespace {

using namespace std::chrono_literals;

/**
 * A random heartbeat-marked trace: threads carry different numbers of
 * markers (shorter threads are padded with empty blocks), markers may
 * repeat or end a thread (empty epochs, trailing ones included), and
 * SiteSummary events and far address jumps (long varints) are mixed in.
 */
Trace
randomMarkedTrace(Rng &rng)
{
    Trace trace;
    trace.threads.resize(1 + rng.below(4));
    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        ThreadTrace &thread = trace.threads[t];
        thread.tid = static_cast<ThreadId>(t);
        const std::size_t n = rng.below(120);
        Addr addr = 0x10000;
        for (std::size_t i = 0; i < n; ++i) {
            addr += rng.below(4) == 0 ? rng.next() >> rng.below(40)
                                      : 8 * rng.below(16);
            switch (rng.below(9)) {
              case 0:
                thread.events.push_back(Event::heartbeat());
                break;
              case 1:
                thread.events.push_back(Event::siteSummary(
                    static_cast<std::uint32_t>(1 + rng.below(1u << 20)),
                    1 + rng.below(1u << 30)));
                break;
              case 2:
                thread.events.push_back(Event::alloc(addr, 64));
                break;
              case 3:
                thread.events.push_back(Event::freeOf(addr, 64));
                break;
              case 4:
                thread.events.push_back(
                    Event::assign2(addr, addr ^ 0x40, addr + 0x1000));
                break;
              case 5:
                thread.events.push_back(Event::nop());
                break;
              case 6:
                thread.events.push_back(Event::write(addr, 4));
                break;
              default:
                thread.events.push_back(Event::read(addr, 8));
                break;
            }
        }
        if (rng.below(3) == 0) // trailing empty epochs
            for (std::size_t k = 1 + rng.below(3); k > 0; --k)
                thread.events.push_back(Event::heartbeat());
    }
    return trace;
}

/** One thread's chunk of encoded log. */
struct Chunk
{
    ThreadId tid = 0;
    std::vector<std::uint8_t> bytes;
};

/**
 * Every thread's log cut at random offsets — including mid-varint,
 * right before and right after a marker, and single bytes — and the
 * threads' chunks interleaved at random (each thread's stay in order).
 */
std::vector<Chunk>
randomChunks(const Trace &trace, Rng &rng)
{
    std::vector<std::vector<Chunk>> per_thread(trace.numThreads());
    for (ThreadId t = 0; t < trace.numThreads(); ++t) {
        LogEncoder enc;
        std::vector<std::size_t> cuts;
        for (const Event &e : trace.threads[t].events) {
            const bool marker = e.kind == EventKind::Heartbeat;
            if (marker && rng.below(2) == 0)
                cuts.push_back(enc.bytes().size());
            enc.encode(e);
            if (marker && rng.below(2) == 0)
                cuts.push_back(enc.bytes().size());
        }
        const std::vector<std::uint8_t> &bytes = enc.bytes();
        for (std::size_t k = rng.below(6); k > 0; --k)
            cuts.push_back(rng.below(bytes.size() + 1));
        if (rng.below(8) == 0) // the worst case: one byte at a time
            for (std::size_t i = 0; i <= bytes.size(); ++i)
                cuts.push_back(i);
        cuts.push_back(0);
        cuts.push_back(bytes.size());
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i)
            per_thread[t].push_back(
                {t, std::vector<std::uint8_t>(bytes.begin() + cuts[i],
                                              bytes.begin() + cuts[i + 1])});
    }
    std::vector<Chunk> out;
    std::vector<std::size_t> next(per_thread.size(), 0);
    for (;;) {
        std::vector<ThreadId> open;
        for (ThreadId t = 0; t < per_thread.size(); ++t)
            if (next[t] < per_thread[t].size())
                open.push_back(t);
        if (open.empty())
            return out;
        const ThreadId t = open[rng.below(open.size())];
        out.push_back(std::move(per_thread[t][next[t]++]));
    }
}

bool
sameEvent(const Event &a, const Event &b)
{
    return a.kind == b.kind && a.addr == b.addr && a.size == b.size &&
           a.nsrc == b.nsrc && (a.nsrc < 1 || a.src0 == b.src0) &&
           (a.nsrc < 2 || a.src1 == b.src1) &&
           (a.kind != EventKind::SiteSummary ||
            (a.site == b.site && a.summaryCount() == b.summaryCount()));
}

void
expectSameLayout(const EpochLayout &want, const EpochLayout &got)
{
    ASSERT_EQ(got.numEpochs(), want.numEpochs());
    ASSERT_EQ(got.numThreads(), want.numThreads());
    EXPECT_EQ(got.instructionCount(), want.instructionCount());
    for (EpochId l = 0; l < want.numEpochs(); ++l) {
        for (ThreadId t = 0; t < want.numThreads(); ++t) {
            const BlockView a = want.block(l, t);
            const BlockView b = got.block(l, t);
            ASSERT_EQ(b.size(), a.size()) << "l=" << l << " t=" << t;
            EXPECT_EQ(b.first, a.first) << "l=" << l << " t=" << t;
            EXPECT_EQ(b.epoch, a.epoch);
            EXPECT_EQ(b.thread, a.thread);
            for (std::size_t i = 0; i < a.size(); ++i)
                ASSERT_TRUE(sameEvent(a.events[i], b.events[i]))
                    << "l=" << l << " t=" << t << " i=" << i;
        }
    }
}

/** Feed @p chunks through a fresh ingest; every chunk must decode. */
BlockIngest
ingestAll(const Trace &trace, const std::vector<Chunk> &chunks)
{
    BlockIngest ingest(trace.numThreads());
    for (const Chunk &c : chunks)
        EXPECT_EQ(ingest.feed(c.tid, c.bytes), DecodeStatus::NeedMore);
    return ingest;
}

TEST(BlockIngest, ChunkedLogsAdoptTheHeartbeatLayout)
{
    Rng rng(20261019);
    for (int round = 0; round < 300; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const Trace trace = randomMarkedTrace(rng);
        const std::vector<Chunk> chunks = randomChunks(trace, rng);

        BlockIngest ingest = ingestAll(trace, chunks);
        std::size_t events = 0, summaries = 0;
        for (const ThreadTrace &t : trace.threads) {
            events += t.events.size();
            for (const Event &e : t.events)
                summaries += e.kind == EventKind::SiteSummary;
        }
        EXPECT_EQ(ingest.eventsDecoded(), events);
        EXPECT_EQ(ingest.summaryEvents(), summaries);
        EXPECT_EQ(ingest.pendingBytes(), 0u);
        expectSameLayout(EpochLayout::fromHeartbeats(trace),
                         std::move(ingest).layout());
    }
}

TEST(BlockIngest, AdaptiveSessionsCoalesceTheDecodedBoundaries)
{
    Rng rng(77);
    for (int round = 0; round < 100; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const Trace trace = randomMarkedTrace(rng);
        BlockIngest ingest = ingestAll(trace, randomChunks(trace, rng));

        const std::size_t seed = rng.below(4);
        auto group = std::make_shared<std::size_t>(seed);
        const ReslicePolicy cycle = [group](EpochId,
                                            std::span<const std::size_t>) {
            static constexpr std::size_t kCycle[4] = {1, 2, 4, 8};
            return kCycle[(*group)++ % 4];
        };
        std::vector<std::uint32_t> spans;
        const EpochLayout got = std::move(ingest).layout(cycle, &spans);
        ASSERT_FALSE(spans.empty());
        expectSameLayout(EpochLayout::coalescedFromHeartbeats(trace, spans),
                         got);
    }
}

// ------------------------------------------------------- through the mux

/** Drive @p chunks (then TraceEnd) through @p mux, retrying on Busy;
 *  return the session's published result. */
service::SessionResult
serve(service::SessionMux &mux, const service::SessionSpec &spec,
           const std::vector<Chunk> &chunks)
{
    const std::uint64_t id = mux.open(spec);
    std::uint64_t seq = 0;
    while (seq <= chunks.size()) {
        service::BusyInfo busy;
        service::RejectInfo reject;
        const service::Admission verdict =
            seq == chunks.size()
                ? mux.submitTraceEnd(id, seq, busy, reject)
                : mux.submitChunk(id, {seq, chunks[seq].tid},
                                  chunks[seq].bytes, busy, reject);
        if (verdict == service::Admission::Busy) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(busy.retryMs));
            seq = busy.seq;
        } else if (verdict == service::Admission::Rejected) {
            // A pump that failed the session already dropped it: its
            // verdict is the published result, not this one.
            if (reject.code == service::RejectCode::Protocol)
                break;
            service::SessionResult result;
            result.failed = true;
            result.reject = reject;
            return result;
        } else {
            ++seq;
        }
    }
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (std::chrono::steady_clock::now() < deadline) {
        for (service::SessionResult &r : mux.drainCompleted())
            if (r.sessionId == id)
                return std::move(r);
        std::this_thread::sleep_for(1ms);
    }
    ADD_FAILURE() << "session " << id << " never completed";
    return {};
}

service::SessionSpec
addrcheckSpec(const Trace &trace)
{
    service::SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(service::Lifeguard::AddrCheck);
    spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
    spec.heapBase = 0x10000;
    spec.heapLimit = ~Addr{0} >> 1;
    return spec;
}

TEST(BlockIngest, ServedSessionsMatchTheReference)
{
    WorkerPool pool(2);
    service::MuxConfig cfg;
    service::SessionMux mux(pool, cfg, {});
    Rng rng(5);
    for (int round = 0; round < 40; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const Trace trace = randomMarkedTrace(rng);
        const service::SessionSpec spec = addrcheckSpec(trace);
        const service::SessionResult result =
            serve(mux, spec, randomChunks(trace, rng));
        ASSERT_FALSE(result.failed) << result.reject.message;
        EXPECT_TRUE(result.report.identical(service::analyzeReference(
            spec, trace, EpochLayout::fromHeartbeats(trace))));
    }
    EXPECT_EQ(mux.globalBytes(), 0u);
}

TEST(BlockIngest, InvalidOpcodeAnywhereEndsTheSessionAsCorrupt)
{
    WorkerPool pool(2);
    service::MuxConfig cfg;
    service::SessionMux mux(pool, cfg, {});
    Rng rng(11);
    for (int round = 0; round < 60; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        Trace trace = randomMarkedTrace(rng);
        // The opcode slot of a random event (or the log's end) of a
        // random thread gets a kind nibble no event has.
        const ThreadId victim =
            static_cast<ThreadId>(rng.below(trace.numThreads()));
        auto &events = trace.threads[victim].events;
        const std::size_t at = rng.below(events.size() + 1);
        LogEncoder prefix;
        for (std::size_t i = 0; i < at; ++i)
            prefix.encode(events[i]);
        std::vector<Chunk> chunks = randomChunks(trace, rng);
        // Splice the bad byte in at that offset of the victim's log.
        std::size_t offset = prefix.bytes().size();
        for (Chunk &c : chunks) {
            if (c.tid != victim)
                continue;
            if (offset <= c.bytes.size()) {
                c.bytes.insert(c.bytes.begin() +
                                   static_cast<std::ptrdiff_t>(offset),
                               std::uint8_t{0x0f});
                offset = SIZE_MAX;
                break;
            }
            offset -= c.bytes.size();
        }
        if (offset != SIZE_MAX) // the victim's log is empty
            chunks.push_back({victim, {0x0f}});

        const service::SessionResult result =
            serve(mux, addrcheckSpec(trace), chunks);
        ASSERT_TRUE(result.failed);
        EXPECT_EQ(result.reject.code, service::RejectCode::CorruptLog)
            << result.reject.message;
        EXPECT_EQ(mux.globalBytes(), 0u);
    }
}

TEST(BlockIngest, LogEndingMidEventIsCorrupt)
{
    WorkerPool pool(1);
    service::MuxConfig cfg;
    service::SessionMux mux(pool, cfg, {});
    const Trace trace = [] {
        Trace t;
        t.threads.resize(1);
        t.threads[0].events = {Event::read(0x123456789, 8)};
        return t;
    }();
    std::vector<std::uint8_t> bytes = encodeEvents(trace.threads[0].events);
    bytes.pop_back(); // the address varint never ends
    const service::SessionResult result =
        serve(mux, addrcheckSpec(trace), {{0, bytes}});
    ASSERT_TRUE(result.failed);
    EXPECT_EQ(result.reject.code, service::RejectCode::CorruptLog);
    EXPECT_EQ(mux.globalBytes(), 0u);
}

} // namespace
} // namespace bfly
