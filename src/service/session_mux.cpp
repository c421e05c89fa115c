#include "service/session_mux.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>

#include "common/logging.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/log_codec.hpp"

namespace bfly::service {

namespace {

/** Pre-interned service metric ids (valid for any registry instance —
 *  the directory is process-wide, only the cells are per-session). */
struct MuxMetrics
{
    telemetry::MetricId ingestBytes;
    telemetry::MetricId ingestEvents;
    telemetry::MetricId ingestChunks;
    telemetry::MetricId analysisEpochs;
    telemetry::MetricId analysisRecords;
    telemetry::MetricId analysisSos;
    telemetry::MetricId coalescedEpochs;
    telemetry::MetricId hChanges;
    telemetry::MetricId decodeNs;
    telemetry::MetricId analysisNs;

    static const MuxMetrics &
    get()
    {
        static const MuxMetrics m = [] {
            auto &r = telemetry::registry();
            MuxMetrics x;
            x.ingestBytes = r.counter("bfly.service.session.ingest_bytes");
            x.ingestEvents = r.counter("bfly.service.session.events");
            x.ingestChunks = r.counter("bfly.service.session.chunks");
            x.analysisEpochs = r.counter("bfly.service.session.epochs");
            x.analysisRecords = r.counter("bfly.service.session.records");
            x.analysisSos = r.counter("bfly.service.session.sos");
            x.coalescedEpochs =
                r.counter("bfly.service.session.coalesced_epochs");
            x.hChanges = r.counter("bfly.service.session.h_changes");
            x.decodeNs = r.counter("bfly.service.session.decode_ns");
            x.analysisNs = r.counter("bfly.service.session.analysis_ns");
            return x;
        }();
        return m;
    }
};

} // namespace

/** One tenant's ingest + decode + analysis state. */
struct SessionMux::Session
{
    std::uint64_t id = 0;
    SessionSpec spec;

    std::mutex mutex; ///< guards everything below

    // Go-back-N sequencing (chunks and TraceEnd share one space).
    std::uint64_t expectedSeq = 0;
    bool draining = false; ///< TraceEnd accepted
    bool failed = false;
    bool aborted = false;
    bool pumpScheduled = false;
    bool analysisScheduled = false;

    struct RawChunk
    {
        std::uint32_t tid = 0;
        std::vector<std::uint8_t> bytes;
    };
    std::deque<RawChunk> queue; ///< bounded by sessionQueueBytes
    std::size_t queuedBytes = 0;

    // Decoded state: touched only by the (single in-flight) pump task
    // and, after the pump has drained, the analysis task.
    BlockIngest ingest; ///< per-thread decoders + epoch blocks
    std::size_t decodedEvents = 0;

    /** Bytes currently charged against the mux's global budget. */
    std::size_t accounted = 0;

    /** Per-tenant degradation ladder (adaptive mode only). Mutated under
     *  `mutex` during admission; quiescent once draining is set (late
     *  frames are Ignored before they reach it), so the analysis task
     *  may read it without the lock. */
    EpochController controller;

    /** The session's private telemetry registry (multi-tenancy). */
    telemetry::MetricsRegistry metrics;
};

namespace {

/** Heap context carrying a session reference through the pool's
 *  void* task interface. */
struct JobCtx
{
    SessionMux *mux;
    std::shared_ptr<SessionMux::Session> session;
};

} // namespace

SessionMux::SessionMux(WorkerPool &pool, const MuxConfig &config,
                       std::function<void()> wake,
                       std::size_t shard_budget_bytes, BudgetPool *rebalance)
    : pool_(pool), config_(config), wake_(std::move(wake)),
      rebalance_(rebalance)
{
    // The per-session cap is still clamped to the *global* budget: with
    // rebalancing, a shard under load can grow past its base slice, so
    // the slice is not the right ceiling for a single tenant.
    if (config_.maxSessionBytes > config_.globalBudgetBytes)
        config_.maxSessionBytes = config_.globalBudgetBytes;
    baseBudgetBytes_ = shard_budget_bytes > 0 ? shard_budget_bytes
                                              : config_.globalBudgetBytes;
    budgetBytes_.store(baseBudgetBytes_, std::memory_order_relaxed);
    shardController_ = EpochController(config_.controller);
}

SessionMux::~SessionMux()
{
    pool_.waitGroup(jobs_);
}

std::uint64_t
SessionMux::open(const SessionSpec &spec, std::uint64_t preassigned_id)
{
    auto session = std::make_shared<Session>();
    session->spec = spec;
    session->ingest = BlockIngest(spec.numThreads);
    session->controller = EpochController(config_.controller);

    std::lock_guard<std::mutex> lock(mutex_);
    if (preassigned_id != 0) {
        session->id = preassigned_id;
        if (preassigned_id >= nextId_)
            nextId_ = preassigned_id + 1;
    } else {
        session->id = nextId_++;
    }
    sessions_.emplace(session->id, session);
    return session->id;
}

std::shared_ptr<SessionMux::Session>
SessionMux::find(std::uint64_t session_id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(session_id);
    return it == sessions_.end() ? nullptr : it->second;
}

void
SessionMux::erase(std::uint64_t session_id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.erase(session_id);
}

Admission
SessionMux::submitChunk(std::uint64_t session_id, const ChunkHeader &header,
                        std::span<const std::uint8_t> log, BusyInfo &busy,
                        RejectInfo &reject)
{
    auto session = find(session_id);
    if (!session) {
        reject = {RejectCode::Protocol, "unknown session"};
        return Admission::Rejected;
    }

    bool schedule_pump = false;
    {
        std::lock_guard<std::mutex> lock(session->mutex);
        if (session->failed || session->aborted || session->draining)
            return Admission::Ignored;
        if (header.seq != session->expectedSeq)
            return Admission::Ignored; // go-back-N flood after a shed

        if (config_.adaptive && header.tid < session->spec.numThreads) {
            // Graduated admission: each in-sequence chunk is one
            // telemetry sample for the tenant's ladder and the shard's.
            // At Busy and beyond, back-pressure kicks in well before the
            // hard watermark would; the Grow/Partial rungs act later, at
            // analysis time.
            ControllerSample sample;
            sample.queueFraction =
                static_cast<double>(session->queuedBytes) /
                static_cast<double>(config_.sessionQueueBytes);
            const std::size_t budget =
                budgetBytes_.load(std::memory_order_relaxed);
            sample.budgetFraction =
                budget == 0
                    ? 1.0
                    : static_cast<double>(
                          globalBytes_.load(std::memory_order_relaxed)) /
                          static_cast<double>(budget);
            const DegradeLevel level =
                session->controller.observe(sample);
            {
                std::lock_guard<std::mutex> ctl(shardCtlMutex_);
                shardController_.observe(sample);
            }
            if (level >= DegradeLevel::Busy) {
                busy = {BusyReason::SessionQueueFull, header.seq,
                        config_.busyRetryMs};
                return Admission::Busy;
            }
        }

        if (header.tid >= session->spec.numThreads) {
            session->failed = true;
            globalBytes_.fetch_sub(session->accounted,
                                   std::memory_order_relaxed);
            session->accounted = 0;
            reject = {RejectCode::Protocol, "chunk tid out of range"};
        } else if (session->accounted + log.size() >
                   config_.maxSessionBytes) {
            session->failed = true;
            globalBytes_.fetch_sub(session->accounted,
                                   std::memory_order_relaxed);
            session->accounted = 0;
            reject = {RejectCode::TooLarge,
                      "session exceeds its byte cap"};
        } else if (session->queuedBytes >= config_.sessionQueueBytes) {
            busy = {BusyReason::SessionQueueFull, header.seq,
                    config_.busyRetryMs};
            return Admission::Busy;
        } else {
            const std::size_t global =
                globalBytes_.load(std::memory_order_relaxed);
            std::size_t budget = budgetBytes_.load(std::memory_order_relaxed);
            if (global + log.size() > budget &&
                stealBudget(global + log.size() - budget))
                budget = budgetBytes_.load(std::memory_order_relaxed);
            if (global + log.size() > budget) {
                if (global > session->accounted) {
                    // Other tenants hold budget; they will release it.
                    busy = {BusyReason::GlobalBudget, header.seq,
                            config_.busyRetryMs * 4};
                    return Admission::Busy;
                }
                if (budget < config_.globalBudgetBytes) {
                    // Alone on this shard but siblings hold the rest of
                    // the budget; an idle tick may donate it. Transient.
                    busy = {BusyReason::GlobalBudget, header.seq,
                            config_.busyRetryMs * 4};
                    return Admission::Busy;
                }
                // This session alone exhausts the budget: permanent.
                session->failed = true;
                globalBytes_.fetch_sub(session->accounted,
                                       std::memory_order_relaxed);
                session->accounted = 0;
                reject = {RejectCode::TooLarge,
                          "session exceeds the global byte budget"};
            }
        }
        if (!session->failed) {
            session->expectedSeq = header.seq + 1;
            session->queuedBytes += log.size();
            session->accounted += log.size();
            globalBytes_.fetch_add(log.size(), std::memory_order_relaxed);
            session->queue.push_back(Session::RawChunk{
                header.tid,
                std::vector<std::uint8_t>(log.begin(), log.end())});
            if (!session->pumpScheduled) {
                session->pumpScheduled = true;
                schedule_pump = true;
            }
        }
    }
    if (schedule_pump)
        pool_.submitTask(jobs_, &SessionMux::pumpTrampoline,
                         new JobCtx{this, session}, 0);
    if (reject.message.empty())
        return Admission::Accepted;
    erase(session_id);
    return Admission::Rejected;
}

Admission
SessionMux::submitTraceEnd(std::uint64_t session_id, std::uint64_t seq,
                           BusyInfo &busy, RejectInfo &reject)
{
    (void)busy;
    auto session = find(session_id);
    if (!session) {
        reject = {RejectCode::Protocol, "unknown session"};
        return Admission::Rejected;
    }
    std::lock_guard<std::mutex> lock(session->mutex);
    if (session->failed || session->aborted || session->draining)
        return Admission::Ignored;
    if (seq != session->expectedSeq)
        return Admission::Ignored;
    session->expectedSeq = seq + 1;
    session->draining = true;
    maybeScheduleAnalysis(session);
    return Admission::Accepted;
}

void
SessionMux::abort(std::uint64_t session_id)
{
    auto session = find(session_id);
    if (!session)
        return;
    erase(session_id);
    std::lock_guard<std::mutex> lock(session->mutex);
    session->aborted = true;
    session->queue.clear();
    session->queuedBytes = 0;
    globalBytes_.fetch_sub(session->accounted, std::memory_order_relaxed);
    session->accounted = 0;
}

void
SessionMux::maybeScheduleAnalysis(const std::shared_ptr<Session> &session)
{
    if (!session->draining || session->analysisScheduled ||
        session->failed || session->aborted || session->pumpScheduled ||
        !session->queue.empty())
        return;
    session->analysisScheduled = true;
    pool_.submitTask(jobs_, &SessionMux::analysisTrampoline,
                     new JobCtx{this, session}, 0);
}

void
SessionMux::pumpTrampoline(void *ctx, std::size_t)
{
    std::unique_ptr<JobCtx> job(static_cast<JobCtx *>(ctx));
    job->mux->pump(job->session);
}

void
SessionMux::pump(const std::shared_ptr<Session> &session)
{
    telemetry::ScopedRegistry scoped(&session->metrics);
    const bool traced = telemetry::enabled();
    const MuxMetrics &metrics = MuxMetrics::get();

    for (;;) {
        Session::RawChunk chunk;
        {
            std::lock_guard<std::mutex> lock(session->mutex);
            if (session->failed || session->aborted) {
                session->pumpScheduled = false;
                return;
            }
            if (session->queue.empty()) {
                session->pumpScheduled = false;
                maybeScheduleAnalysis(session);
                return;
            }
            chunk = std::move(session->queue.front());
            session->queue.pop_front();
        }

        if (config_.debugPumpDelayMs > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(config_.debugPumpDelayMs));

        // Decode outside the lock: the ingest is owned by the single
        // in-flight pump. Every event the chunk completes lands in its
        // thread's epoch blocks in one pass.
        const std::uint64_t t0 = traced ? telemetry::tracer().nowNs() : 0;
        const std::size_t before = session->ingest.eventsDecoded();
        if (session->ingest.feed(chunk.tid, chunk.bytes) ==
            DecodeStatus::Corrupt) {
            failSession(session, RejectCode::CorruptLog,
                        "log bytes failed to decode");
            return;
        }
        const std::size_t decoded_now =
            session->ingest.eventsDecoded() - before;

        const std::size_t event_bytes = decodedEventBytes(decoded_now);
        bool too_large = false;
        {
            std::lock_guard<std::mutex> lock(session->mutex);
            if (session->failed || session->aborted) {
                session->pumpScheduled = false;
                return;
            }
            session->queuedBytes -= chunk.bytes.size();
            session->decodedEvents += decoded_now;
            session->accounted += event_bytes;
            session->accounted -= chunk.bytes.size();
            // One accounting call per chunk: charge the decoded events
            // and credit the drained raw bytes as a single signed delta
            // (two's-complement wraparound makes fetch_add a subtract
            // when the delta is negative). Intermediate states where
            // only half the adjustment is visible can no longer be
            // observed by concurrent admission decisions.
            const std::size_t delta =
                event_bytes - chunk.bytes.size(); // may wrap: intended
            globalBytes_.fetch_add(delta, std::memory_order_relaxed);
            too_large = session->decodedEvents > config_.maxSessionEvents ||
                        session->accounted > config_.maxSessionBytes;
        }
        if (too_large) {
            failSession(session, RejectCode::TooLarge,
                        "decoded trace exceeds the session cap");
            return;
        }
        if (traced) {
            auto &r = telemetry::registry();
            r.add(metrics.decodeNs, telemetry::tracer().nowNs() - t0);
            r.add(metrics.ingestChunks, 1);
            r.add(metrics.ingestBytes, chunk.bytes.size());
            r.add(metrics.ingestEvents, decoded_now);
        }
    }
}

void
SessionMux::analysisTrampoline(void *ctx, std::size_t)
{
    std::unique_ptr<JobCtx> job(static_cast<JobCtx *>(ctx));
    job->mux->analyze(job->session);
}

void
SessionMux::analyze(const std::shared_ptr<Session> &session)
{
    telemetry::ScopedRegistry scoped(&session->metrics);

    const bool traced = telemetry::enabled();
    const std::uint64_t t0 = traced ? telemetry::tracer().nowNs() : 0;
    BlockIngest ingest;
    DegradeLevel level = DegradeLevel::Normal;
    {
        std::lock_guard<std::mutex> lock(session->mutex);
        if (session->failed || session->aborted)
            return;
        ingest = std::move(session->ingest);
        level = session->controller.level();
    }
    if (ingest.pendingBytes() > 0) {
        failSession(session, RejectCode::CorruptLog,
                    "log ends in the middle of an event");
        return;
    }
    const std::uint64_t summary_events = ingest.summaryEvents();

    // Adaptive epoch sizing: pick the coalescing policy the layout will
    // consult per epoch group. The ladder's Grow rungs set a floor, the
    // size target merges marker-dense streams up to the analysis sweet
    // spot, and the force-cycle hook deterministically exercises every
    // width so the differential harness can prove bit-identity across
    // h-changes.
    ReslicePolicy reslice;
    bool degrade_partial = false;
    if (config_.adaptive) {
        degrade_partial = level >= DegradeLevel::Partial;
        if (config_.adaptiveForceCycle) {
            auto group = std::make_shared<std::size_t>(0);
            reslice = [group](EpochId, std::span<const std::size_t>) {
                static constexpr std::size_t kCycle[4] = {1, 2, 4, 8};
                return kCycle[(*group)++ % 4];
            };
        } else {
            const std::size_t floor_k = [&] {
                std::lock_guard<std::mutex> lock(session->mutex);
                return session->controller.coalesceFactor();
            }();
            const ControllerConfig ctl = config_.controller;
            if (floor_k > 1 || ctl.targetEventsPerEpoch > 0) {
                reslice = [floor_k, ctl](
                              EpochId leader,
                              std::span<const std::size_t> events) {
                    std::size_t k = floor_k;
                    if (ctl.targetEventsPerEpoch > 0) {
                        std::size_t sum = 0, grow = 0;
                        while (leader + grow < events.size() &&
                               grow < ctl.maxCoalesce &&
                               sum < ctl.targetEventsPerEpoch)
                            sum += events[leader + grow++];
                        k = std::max(k, grow);
                    }
                    return std::min(k, std::max<std::size_t>(
                                           ctl.maxCoalesce, 1));
                };
            }
        }
    }

    // The session is the unit of parallelism: its whole window runs on
    // this worker, over the blocks the pump decoded (no copy).
    std::vector<std::uint32_t> spans;
    const EpochLayout layout =
        std::move(ingest).layout(reslice, reslice ? &spans : nullptr);
    RemoteReport report = analyzeLayout(session->spec, layout);

    std::uint64_t h_changes = 0;
    std::uint64_t coalesced = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i] > 1)
            coalesced += spans[i] - 1;
        if (i > 0 && spans[i] != spans[i - 1])
            ++h_changes;
    }

    if (traced) {
        const MuxMetrics &metrics = MuxMetrics::get();
        auto &r = telemetry::registry();
        r.add(metrics.analysisEpochs, report.epochs);
        r.add(metrics.analysisRecords, report.records.size());
        r.add(metrics.analysisSos, report.sos.size());
        r.add(metrics.coalescedEpochs, coalesced);
        r.add(metrics.hChanges, h_changes);
        r.add(metrics.analysisNs, telemetry::tracer().nowNs() - t0);
    }

    {
        std::lock_guard<std::mutex> lock(session->mutex);
        globalBytes_.fetch_sub(session->accounted,
                               std::memory_order_relaxed);
        session->accounted = 0;
    }
    erase(session->id);

    SessionResult result;
    result.sessionId = session->id;
    result.report = std::move(report);
    result.realizedSpans = std::move(spans);
    result.hChanges = h_changes;
    result.degradePartial = degrade_partial;
    result.planFingerprint = session->spec.planFingerprint;
    result.summaryEvents = summary_events;
    result.metrics = session->metrics.snapshot();
    publish(std::move(result));
}

void
SessionMux::failSession(const std::shared_ptr<Session> &session,
                        RejectCode code, std::string message)
{
    {
        std::lock_guard<std::mutex> lock(session->mutex);
        if (session->failed || session->aborted)
            return;
        session->failed = true;
        session->pumpScheduled = false;
        session->queue.clear();
        session->queuedBytes = 0;
        globalBytes_.fetch_sub(session->accounted,
                               std::memory_order_relaxed);
        session->accounted = 0;
    }
    erase(session->id);

    SessionResult result;
    result.sessionId = session->id;
    result.failed = true;
    result.reject = {code, std::move(message)};
    result.metrics = session->metrics.snapshot();
    publish(std::move(result));
}

void
SessionMux::publish(SessionResult result)
{
    {
        std::lock_guard<std::mutex> lock(completedMutex_);
        completed_.push_back(std::move(result));
    }
    if (wake_)
        wake_();
}

std::vector<SessionResult>
SessionMux::drainCompleted()
{
    std::lock_guard<std::mutex> lock(completedMutex_);
    std::vector<SessionResult> out;
    out.swap(completed_);
    return out;
}

std::size_t
SessionMux::globalBytes() const
{
    return globalBytes_.load(std::memory_order_relaxed);
}

std::size_t
SessionMux::activeSessions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

bool
SessionMux::stealBudget(std::size_t need)
{
    if (!rebalance_)
        return false;
    // Take at least a quantum so a pressured shard does not come back
    // for every chunk, but never more than the pool holds.
    static constexpr std::size_t kStealQuantum = 64 * 1024;
    std::size_t spare = rebalance_->spare.load(std::memory_order_relaxed);
    for (;;) {
        if (spare == 0)
            return false;
        const std::size_t want = std::max(need, kStealQuantum);
        const std::size_t take = std::min(spare, want);
        if (rebalance_->spare.compare_exchange_weak(
                spare, spare - take, std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
            budgetBytes_.fetch_add(take, std::memory_order_relaxed);
            steals_.fetch_add(1, std::memory_order_relaxed);
            stolenBytes_.fetch_add(take, std::memory_order_relaxed);
            return true;
        }
    }
}

void
SessionMux::donateIdleBudget()
{
    if (!rebalance_)
        return;
    // Only a *fully* idle shard donates: no open sessions and nothing
    // accounted. Keeping half the base slice means an arriving session
    // is admitted immediately without a round-trip through the pool.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!sessions_.empty())
            return;
    }
    if (globalBytes_.load(std::memory_order_relaxed) != 0)
        return;
    const std::size_t keep = baseBudgetBytes_ / 2;
    std::size_t budget = budgetBytes_.load(std::memory_order_relaxed);
    for (;;) {
        if (budget <= keep)
            return;
        const std::size_t give = budget - keep;
        if (budgetBytes_.compare_exchange_weak(
                budget, keep, std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
            rebalance_->spare.fetch_add(give, std::memory_order_acq_rel);
            donatedBytes_.fetch_add(give, std::memory_order_relaxed);
            return;
        }
    }
}

std::size_t
SessionMux::budgetBytes() const
{
    return budgetBytes_.load(std::memory_order_relaxed);
}

std::uint64_t
SessionMux::budgetSteals() const
{
    return steals_.load(std::memory_order_relaxed);
}

std::size_t
SessionMux::budgetStolenBytes() const
{
    return stolenBytes_.load(std::memory_order_relaxed);
}

std::size_t
SessionMux::budgetDonatedBytes() const
{
    return donatedBytes_.load(std::memory_order_relaxed);
}

DegradeLevel
SessionMux::shardLevel() const
{
    if (!config_.adaptive)
        return DegradeLevel::Normal;
    std::lock_guard<std::mutex> lock(shardCtlMutex_);
    return shardController_.level();
}

bool
SessionMux::shedNewSessions() const
{
    return shardLevel() >= DegradeLevel::Shed;
}

void
SessionMux::tickShardController()
{
    if (!config_.adaptive)
        return;
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(shardCtlMutex_);
    if (now - lastCtlTick_ < std::chrono::milliseconds(100))
        return;
    lastCtlTick_ = now;
    // Queue fractions are per-session; what outlives every session is
    // the accounted-bytes occupancy, so the tick judges pressure by the
    // budget alone. An abusive tenant's parked bytes keep the sample
    // hot; an abort that reclaims them lets the ladder walk back down.
    ControllerSample sample;
    const std::size_t budget =
        budgetBytes_.load(std::memory_order_relaxed);
    sample.budgetFraction =
        budget == 0 ? 1.0
                    : static_cast<double>(
                          globalBytes_.load(std::memory_order_relaxed)) /
                          static_cast<double>(budget);
    shardController_.observe(sample);
}

} // namespace bfly::service
