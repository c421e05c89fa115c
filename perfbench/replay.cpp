#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>
#include <tuple>

#include "butterfly/reaching_defs.hpp"
#include "butterfly/window.hpp"
#include "common/worker_pool.hpp"
#include "lifeguards/addrcheck.hpp"
#include "lifeguards/addrleak.hpp"
#include "lifeguards/defcheck.hpp"
#include "lifeguards/lockset.hpp"
#include "lifeguards/taintcheck.hpp"
#include "trace/epoch_slicer.hpp"
#include "trace/log_codec.hpp"

namespace perfbench {

namespace {

using namespace bfly;
using service::FrameType;
using service::Lifeguard;
using service::RemoteReport;
using service::SessionSpec;

// The client's default chunk size, the server's read size and its
// report batching (client.hpp, server.cpp).
constexpr std::size_t kChunkBytes = 32 * 1024;
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kRecordsPerFrame = 4096;
constexpr std::size_t kSosPerFrame = 8192;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 20;
constexpr double kMinReplayMs = 3000;

// ------------------------------------------------------------- spans

struct Span
{
    const char *name = "";
    std::uint64_t session = 0;
    std::int64_t parent = -1;
    unsigned thread = 0;
    Clock::time_point start;
    Clock::time_point end;
};

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

/** In-memory span store; hooks append from pool workers. */
class SpanLog
{
  public:
    std::int64_t
    open(const char *name, std::uint64_t session, std::int64_t parent)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, session, parent, threadIndex(),
                          Clock::now(), {}});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    void
    close(std::int64_t id)
    {
        const auto now = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = now;
    }

    void
    add(const char *name, std::uint64_t session, std::int64_t parent,
        Clock::time_point start, Clock::time_point end)
    {
        const unsigned thread = threadIndex();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, session, parent, thread, start, end});
    }

    /** Read after the replay, when no hook is running. */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Duration minus the part of it the span's children cover, in ms. */
std::vector<double>
selfTimesMs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<Clock::time_point,
                                      Clock::time_point>>>
        children(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0;
        Clock::time_point reach = spans[i].start;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            b = std::min(b, spans[i].end);
            if (b > a) {
                covered += msBetween(a, b);
                reach = b;
            }
        }
        self[i] = msBetween(spans[i].start, spans[i].end) - covered;
    }
    return self;
}

bool
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    const Clock::time_point base =
        spans.empty() ? Clock::time_point{} : spans.front().start;
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - base).count();
    };
    out << "{\"traceEvents\":[";
    char buf[384];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"session\":%llu,\"id\":%zu,\"parent\":%lld}}",
                      i ? "," : "", s.name, s.thread, us(s.start),
                      us(s.end) - us(s.start),
                      static_cast<unsigned long long>(s.session), i,
                      static_cast<long long>(s.parent));
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// --------------------------------------------------- lifeguard decorator

/**
 * Forwards every AnalysisDriver hook to the wrapped lifeguard and
 * records a span around each pass1/pass2/finalizeEpoch call. The
 * scheduling queries (finalizeAfterPass2, pass2ReadsOwnNextPass1) and
 * beginPass/setBatchMode are forwarded too, so the task graph being
 * timed is the lifeguard's own.
 */
class TracedDriver final : public AnalysisDriver
{
  public:
    TracedDriver(AnalysisDriver &inner, SpanLog &log, std::uint64_t session)
        : inner_(inner), log_(log), session_(session)
    {}

    void setParent(std::int64_t parent) { parent_ = parent; }

    void
    pass1(const BlockView &block) override
    {
        const auto t0 = Clock::now();
        inner_.pass1(block);
        log_.add("lifeguard.pass1", session_, parent_, t0, Clock::now());
    }

    void
    pass2(const BlockView &block) override
    {
        const auto t0 = Clock::now();
        inner_.pass2(block);
        log_.add("lifeguard.pass2", session_, parent_, t0, Clock::now());
    }

    void
    finalizeEpoch(EpochId l) override
    {
        const auto t0 = Clock::now();
        inner_.finalizeEpoch(l);
        log_.add("lifeguard.finalize", session_, parent_, t0, Clock::now());
    }

    void beginPass(EpochId l, bool second) override
    {
        inner_.beginPass(l, second);
    }
    void setBatchMode(bool enabled) override { inner_.setBatchMode(enabled); }
    bool finalizeAfterPass2() const override
    {
        return inner_.finalizeAfterPass2();
    }
    bool pass2ReadsOwnNextPass1() const override
    {
        return inner_.pass2ReadsOwnNextPass1();
    }

  private:
    AnalysisDriver &inner_;
    SpanLog &log_;
    std::uint64_t session_;
    std::int64_t parent_ = -1;
};

// ------------------------------------- the analyzer's lifeguard set-up
// A mirror of runLifeguard in src/service/analyzer.cpp (file-local
// there): the same construction per lifeguard and the same canonical,
// fingerprinted report, so a decorated run can be compared with
// identical() against analyzeReference.

void
fnv(std::uint64_t &h, std::uint64_t v)
{
    h ^= v;
    h *= 0x100000001b3ull;
}

std::vector<ErrorRecord>
canonicalRecords(const ErrorLog &log)
{
    std::vector<ErrorRecord> out = log.records();
    std::sort(out.begin(), out.end(),
              [](const ErrorRecord &a, const ErrorRecord &b) {
                  return std::tie(a.tid, a.index, a.addr, a.kind, a.size) <
                         std::tie(b.tid, b.index, b.addr, b.kind, b.size);
              });
    return out;
}

void
fingerprintObservables(RemoteReport &report)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const ErrorRecord &r : report.records) {
        fnv(h, r.tid);
        fnv(h, r.index);
        fnv(h, r.addr);
        fnv(h, static_cast<std::uint64_t>(r.kind));
        fnv(h, r.size);
    }
    fnv(h, 0x5050);
    for (Addr a : report.sos)
        fnv(h, a);
    fnv(h, report.fingerprint);
    report.fingerprint = h;
}

template <typename DriveFn>
RemoteReport
runLifeguard(const SessionSpec &spec, std::size_t num_threads,
             std::size_t num_epochs, DriveFn &&drive)
{
    RemoteReport report;
    report.epochs = num_epochs;
    switch (static_cast<Lifeguard>(spec.lifeguard)) {
      case Lifeguard::AddrCheck: {
        AddrCheckConfig cfg;
        cfg.granularity = spec.granularity;
        cfg.heapBase = spec.heapBase;
        cfg.heapLimit = spec.heapLimit;
        ButterflyAddrCheck driver(num_threads, cfg);
        report.peakResidentEpochs = drive(driver);
        report.records = canonicalRecords(driver.errors());
        report.sos = driver.sosNow().sorted();
        break;
      }
      case Lifeguard::TaintCheck: {
        TaintCheckConfig cfg;
        cfg.granularity = spec.granularity;
        const TaintTermination termination =
            spec.memModel == 1 ? TaintTermination::Relaxed
                               : TaintTermination::SequentialConsistency;
        ButterflyTaintCheck driver(num_threads, cfg, termination);
        report.peakResidentEpochs = drive(driver);
        report.records = canonicalRecords(driver.errors());
        report.sos = driver.sosNow().sorted();
        break;
      }
      case Lifeguard::DefCheck: {
        DefCheckConfig cfg;
        cfg.granularity = spec.granularity;
        cfg.heapBase = spec.heapBase;
        cfg.heapLimit = spec.heapLimit;
        ButterflyDefCheck driver(num_threads, cfg);
        report.peakResidentEpochs = drive(driver);
        report.records = canonicalRecords(driver.errors());
        break;
      }
      case Lifeguard::LockSet: {
        LockSetConfig cfg;
        cfg.granularity = spec.granularity;
        cfg.heapBase = spec.heapBase;
        cfg.heapLimit = spec.heapLimit;
        ButterflyLockSet driver(num_threads, cfg);
        report.peakResidentEpochs = drive(driver);
        report.records = canonicalRecords(driver.errors());
        break;
      }
      case Lifeguard::AddrLeak: {
        AddrLeakConfig cfg;
        cfg.granularity = spec.granularity;
        cfg.heapBase = spec.heapBase;
        cfg.heapLimit = spec.heapLimit;
        ButterflyAddrLeak driver(num_threads, cfg);
        report.peakResidentEpochs = drive(driver);
        report.records = canonicalRecords(driver.errors());
        report.sos = driver.sosNow().sorted();
        break;
      }
      case Lifeguard::ReachingDefs: {
        ReachingDefinitions driver(num_threads);
        report.peakResidentEpochs = drive(driver);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (EpochId l = 0; l < num_epochs; ++l) {
            for (DefId d : driver.sos(l).sorted())
                fnv(h, d);
            fnv(h, 0x5051);
            for (DefId d : driver.genEpoch(l).sorted())
                fnv(h, d);
            fnv(h, 0x5052);
            for (ThreadId t = 0; t < num_threads; ++t) {
                for (DefId d : driver.blockResults(l, t).in.sorted())
                    fnv(h, d);
                fnv(h, 0x5053);
                for (DefId d : driver.blockResults(l, t).out.sorted())
                    fnv(h, d);
                fnv(h, 0x5054);
            }
        }
        report.fingerprint = h;
        break;
      }
    }
    fingerprintObservables(report);
    return report;
}

// ------------------------------------------------------------ replay

/** Counts of one replay repetition (over all distinct sessions). */
struct RepCounts
{
    std::uint64_t events = 0;
    std::uint64_t logBytes = 0;
    std::uint64_t streamBytes = 0;
    std::uint64_t frames = 0;
    std::uint64_t reportBytes = 0;
    std::uint64_t tasks = 0;
    std::uint64_t epochs = 0;
    std::uint64_t peakResident = 0;
    double untracedMs = 0;
};

/** Replay one session through every layer, recording spans. */
bool
replayOne(const SessionInput &in, std::uint64_t session, WorkerPool &pool,
          SpanLog &log, RepCounts &counts, std::string &error)
{
    const SessionSpec &spec = in.spec;
    const std::size_t threads = in.marked.numThreads();
    const std::int64_t root = log.open("replay.session", session, -1);

    // client/log_codec: each thread's stream, as MonitorClient::run does.
    std::int64_t span = log.open("client.encode", session, root);
    std::vector<std::vector<std::uint8_t>> encoded;
    encoded.reserve(threads);
    for (const ThreadTrace &thread : in.marked.threads)
        encoded.push_back(encodeEvents(thread.events));
    log.close(span);

    // wire: SessionOpen, chunked LogChunks, TraceEnd.
    span = log.open("wire.frame", session, root);
    std::vector<std::uint8_t> stream;
    service::appendFrame(stream, FrameType::SessionOpen,
                         service::encodeSessionOpen(spec));
    std::uint64_t seq = 0;
    for (std::uint32_t tid = 0; tid < threads; ++tid) {
        const auto &bytes = encoded[tid];
        for (std::size_t off = 0; off < bytes.size(); off += kChunkBytes) {
            const std::size_t n = std::min(kChunkBytes, bytes.size() - off);
            service::appendFrame(
                stream, FrameType::LogChunk,
                service::encodeChunk({seq++, tid}, {bytes.data() + off, n}));
        }
    }
    service::appendFrame(stream, FrameType::TraceEnd,
                         service::encodeTraceEnd(seq));
    log.close(span);

    // wire: the server's frame splitter over socket-sized reads.
    span = log.open("wire.parse", session, root);
    service::FrameParser parser;
    std::vector<service::Frame> frames;
    for (std::size_t off = 0; off < stream.size(); off += kReadChunk) {
        parser.feed({stream.data() + off,
                     std::min(kReadChunk, stream.size() - off)});
        service::Frame frame;
        DecodeStatus status;
        while ((status = parser.next(frame)) == DecodeStatus::Ok)
            frames.push_back(std::move(frame));
        if (status == DecodeStatus::Corrupt) {
            error = in.label + ": corrupt frame stream";
            return false;
        }
    }
    log.close(span);

    // trace/log_codec: per-thread incremental decode of chunk payloads.
    span = log.open("trace.decode", session, root);
    Trace decoded;
    decoded.threads.resize(threads);
    std::vector<ChunkedLogDecoder> decoders(threads);
    for (const service::Frame &frame : frames) {
        if (frame.type != FrameType::LogChunk)
            continue;
        service::ChunkHeader header;
        std::span<const std::uint8_t> bytes;
        if (service::decodeChunk(frame.payload, header, bytes) !=
                DecodeStatus::Ok ||
            header.tid >= threads) {
            error = in.label + ": bad LogChunk frame";
            return false;
        }
        ChunkedLogDecoder &decoder = decoders[header.tid];
        decoder.feed(bytes);
        Event e;
        DecodeStatus status;
        while ((status = decoder.next(e)) == DecodeStatus::Ok)
            decoded.threads[header.tid].events.push_back(e);
        if (status == DecodeStatus::Corrupt) {
            error = in.label + ": corrupt log bytes";
            return false;
        }
    }
    for (std::size_t t = 0; t < threads; ++t)
        decoded.threads[t].tid = static_cast<ThreadId>(t);
    log.close(span);

    // trace/epoch_slicer: the server's streaming source.
    span = log.open("trace.slice", session, root);
    EpochStream::Config cfg;
    cfg.windowEpochs = spec.windowEpochs;
    cfg.fromHeartbeats = true;
    EpochStream epochs(decoded, cfg);
    log.close(span);

    // service/analyzer -> butterfly/window -> lifeguards.
    const std::int64_t analyzer = log.open("analyzer.run", session, root);
    PipelineStats stats;
    RemoteReport report = runLifeguard(
        spec, threads, epochs.numEpochs(), [&](AnalysisDriver &inner) {
            TracedDriver traced(inner, log, session);
            traced.setBatchMode(false);
            if (epochs.numEpochs() == 0)
                return std::size_t{0};
            const std::int64_t window =
                log.open("window.run", session, analyzer);
            traced.setParent(window);
            stats = WindowSchedule(true, &pool).runPipelined(epochs, traced);
            log.close(window);
            return stats.peakResidentEpochs;
        });
    report.events = decoded.instructionCount();
    log.close(analyzer);

    // wire: report frames as the server batches them.
    span = log.open("wire.report", session, root);
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < report.records.size(); i += kRecordsPerFrame)
        service::appendFrame(
            out, FrameType::ErrorReport,
            service::encodeErrorReport(
                {report.records.data() + i,
                 std::min(kRecordsPerFrame, report.records.size() - i)}));
    for (std::size_t i = 0; i < report.sos.size(); i += kSosPerFrame)
        service::appendFrame(
            out, FrameType::Sos,
            service::encodeSos({report.sos.data() + i,
                                std::min(kSosPerFrame,
                                         report.sos.size() - i)}));
    service::SummaryInfo summary;
    summary.epochs = report.epochs;
    summary.events = report.events;
    summary.recordsTotal = report.records.size();
    summary.sosTotal = report.sos.size();
    summary.peakResidentEpochs = report.peakResidentEpochs;
    summary.fingerprint = report.fingerprint;
    service::appendFrame(out, FrameType::Summary,
                         service::encodeSummary(summary));
    log.close(span);
    log.close(root);

    if (!report.identical(in.reference)) {
        error = in.label + ": decorated report differs from analyzeReference";
        return false;
    }

    // The same analysis undecorated, for analyzer.ms_per_session and the
    // tracing overhead.
    const auto t0 = Clock::now();
    const RemoteReport plain = service::analyzeStreaming(spec, decoded, pool);
    counts.untracedMs += msBetween(t0, Clock::now());
    if (!plain.identical(in.reference)) {
        error = in.label + ": analyzeStreaming differs from analyzeReference";
        return false;
    }

    counts.events += in.events;
    for (const auto &bytes : encoded)
        counts.logBytes += bytes.size();
    counts.streamBytes += stream.size();
    counts.frames += frames.size();
    counts.reportBytes += out.size();
    counts.tasks += stats.tasksRun;
    counts.epochs += epochs.numEpochs();
    counts.peakResident =
        std::max<std::uint64_t>(counts.peakResident, stats.peakResidentEpochs);
    return true;
}

} // namespace

ReplayResult
replay(const Plan &plan, double session_ms_p50, const std::string &spans_path)
{
    ReplayResult result;
    const std::size_t n = plan.sessions.size();
    WorkerPool pool(std::max(1u, std::thread::hardware_concurrency()));
    SpanLog log;
    std::vector<RepCounts> reps;

    const auto start = Clock::now();
    while (static_cast<int>(reps.size()) < kMinReps ||
           (msBetween(start, Clock::now()) < kMinReplayMs &&
            static_cast<int>(reps.size()) < kMaxReps)) {
        RepCounts counts;
        for (std::size_t s = 0; s < n; ++s) {
            const std::uint64_t session = reps.size() * n + s + 1;
            if (!replayOne(plan.sessions[s], session, pool, log, counts,
                           result.error))
                return result;
        }
        reps.push_back(counts);
    }

    // Per repetition: total duration and self time of each span name.
    const std::vector<Span> &spans = log.spans();
    const std::vector<double> self = selfTimesMs(spans);
    std::vector<std::map<std::string, double>> dur(reps.size()),
        selfMs(reps.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::size_t rep = (spans[i].session - 1) / n;
        dur[rep][spans[i].name] += msBetween(spans[i].start, spans[i].end);
        selfMs[rep][spans[i].name] += self[i];
    }

    // Each metric is the median over repetitions of its per-rep value.
    const auto emit = [&](const std::string &name, const std::string &unit,
                          auto &&per_rep) {
        std::vector<double> v;
        for (std::size_t r = 0; r < reps.size(); ++r)
            v.push_back(per_rep(reps[r], dur[r], selfMs[r]));
        result.metrics[name] = {median(v), unit};
    };
    using D = std::map<std::string, double>;
    const double sessions = static_cast<double>(n);
    const auto at = [](const D &d, const char *key) {
        const auto it = d.find(key);
        return it == d.end() ? 0.0 : it->second;
    };

    emit("trace.encode_ns_per_event", "ns",
         [&](const RepCounts &c, const D &d, const D &) {
             return at(d, "client.encode") * 1e6 / c.events;
         });
    emit("trace.log_bytes_per_event", "bytes",
         [&](const RepCounts &c, const D &, const D &) {
             return static_cast<double>(c.logBytes) / c.events;
         });
    emit("wire.frame_ns_per_kib", "ns",
         [&](const RepCounts &c, const D &d, const D &) {
             return at(d, "wire.frame") * 1e6 / (c.streamBytes / 1024.0);
         });
    emit("wire.frames_per_session", "count",
         [&](const RepCounts &c, const D &, const D &) {
             return c.frames / sessions;
         });
    emit("wire.parse_ns_per_kib", "ns",
         [&](const RepCounts &c, const D &d, const D &) {
             return at(d, "wire.parse") * 1e6 / (c.streamBytes / 1024.0);
         });
    emit("trace.decode_ns_per_event", "ns",
         [&](const RepCounts &c, const D &d, const D &) {
             return at(d, "trace.decode") * 1e6 / c.events;
         });
    emit("trace.slice_ns_per_event", "ns",
         [&](const RepCounts &c, const D &d, const D &) {
             return at(d, "trace.slice") * 1e6 / c.events;
         });
    emit("window.peak_resident_epochs", "count",
         [&](const RepCounts &c, const D &, const D &) {
             return static_cast<double>(c.peakResident);
         });
    for (const char *hook : {"pass1", "pass2", "finalize"})
        emit(std::string("lifeguard.") + hook + "_ms", "ms",
             [&, hook](const RepCounts &, const D &d, const D &) {
                 return at(d, (std::string("lifeguard.") + hook).c_str()) /
                        sessions;
             });
    emit("lifeguard.pass2_share", "fraction",
         [&](const RepCounts &, const D &d, const D &) {
             const double p2 = at(d, "lifeguard.pass2");
             return p2 / (at(d, "lifeguard.pass1") + p2 +
                          at(d, "lifeguard.finalize"));
         });
    emit("window.wall_ms", "ms",
         [&](const RepCounts &, const D &d, const D &) {
             return at(d, "window.run") / sessions;
         });
    emit("window.self_ms", "ms",
         [&](const RepCounts &, const D &, const D &s) {
             return at(s, "window.run") / sessions;
         });
    emit("window.parallelism", "ratio",
         [&](const RepCounts &, const D &d, const D &) {
             return (at(d, "lifeguard.pass1") + at(d, "lifeguard.pass2") +
                     at(d, "lifeguard.finalize")) /
                    at(d, "window.run");
         });
    emit("window.tasks_per_epoch", "count",
         [&](const RepCounts &c, const D &, const D &) {
             return static_cast<double>(c.tasks) / c.epochs;
         });
    emit("analyzer.ms_per_session", "ms",
         [&](const RepCounts &c, const D &, const D &) {
             return c.untracedMs / sessions;
         });
    emit("analyzer.share_of_session", "fraction",
         [&](const RepCounts &c, const D &, const D &) {
             return c.untracedMs / sessions / session_ms_p50;
         });
    emit("wire.report_bytes_per_session", "bytes",
         [&](const RepCounts &c, const D &, const D &) {
             return c.reportBytes / sessions;
         });
    emit("wire.report_encode_us", "us",
         [&](const RepCounts &, const D &d, const D &) {
             return at(d, "wire.report") * 1e3 / sessions;
         });
    emit("tracing.overhead_frac", "fraction",
         [&](const RepCounts &c, const D &d, const D &) {
             return (at(d, "trace.slice") + at(d, "analyzer.run")) /
                        c.untracedMs -
                    1;
         });
    emit("replay.unaccounted_frac", "fraction",
         [&](const RepCounts &, const D &d, const D &s) {
             return at(s, "replay.session") / at(d, "replay.session");
         });

    const double unaccounted = result.metrics["replay.unaccounted_frac"].value;
    if (unaccounted > kMaxUnaccountedFrac) {
        result.error = "replay stages leave " + std::to_string(unaccounted) +
                       " of the wall time unaccounted";
        return result;
    }
    if (!writeSpans(spans, spans_path)) {
        result.error = "cannot write " + spans_path;
        return result;
    }

    std::fprintf(stderr, "replay: %zu reps x %zu sessions, %zu spans -> %s\n",
                 reps.size(), n, spans.size(), spans_path.c_str());
    std::fprintf(stderr, "replay: self time per session (ms):");
    for (const auto &[name, ms] : selfMs[reps.size() / 2])
        std::fprintf(stderr, " %s=%.3f", name.c_str(), ms / sessions);
    std::fprintf(stderr, "\n");
    result.ok = true;
    return result;
}

} // namespace perfbench
