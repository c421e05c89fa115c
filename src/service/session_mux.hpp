/**
 * @file
 * Session multiplexer: shards concurrent monitoring sessions onto the
 * shared WorkerPool with bounded ingest and explicit load shedding.
 *
 * Each session owns a bounded queue of raw log chunks (the service's
 * LogBuffer analogue: the network is the producer, the decode pump the
 * consumer). The event loop enqueues accepted chunks and a pump task —
 * one in flight per session, running on the shared pool — drains the
 * queue through a BlockIngest: each chunk is decoded in one pass
 * straight into its thread's epoch blocks. When the queue is at
 * capacity, or the server-wide byte budget (queued + decoded bytes
 * across all sessions) is exhausted, the chunk is shed with a Busy
 * outcome and the client rewinds (go-back-N).
 * A session whose own footprint exceeds its hard cap is rejected
 * outright — that is not a transient condition, so retrying would
 * livelock.
 *
 * After TraceEnd drains, an analysis job on the same pool adopts the
 * decoded blocks as an EpochLayout (no copy) and runs the whole window
 * on its own worker, inside the session's telemetry registry: sessions,
 * not blocks, are the unit of parallelism. Completion
 * results cross back to the event loop through a mutex-protected queue
 * plus a caller-supplied wake callback (the server writes a self-pipe).
 *
 * Threading contract: open/submit/abort are called only from the
 * owning reactor's event loop thread; pump and analysis tasks run on
 * the pool; per-session state is guarded by the session's mutex, the
 * session map by the mux's, and the byte budget is atomic.
 *
 * Sharding: a multi-reactor server creates one SessionMux per reactor,
 * each with a slice of the global byte budget. The slices are linked
 * through a shared BudgetPool: a shard that would shed with
 * Busy{GlobalBudget} first tries to *steal* spare budget from the pool
 * (fast path, one CAS), and a fully idle shard *donates* its excess
 * back down to half its base slice on the reactor's idle tick. The
 * invariant is conservation: sum over shards of budgetBytes() plus the
 * pool's spare always equals the configured global budget.
 */

#ifndef BUTTERFLY_SERVICE_SESSION_MUX_HPP
#define BUTTERFLY_SERVICE_SESSION_MUX_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/worker_pool.hpp"
#include "service/analyzer.hpp"
#include "service/epoch_controller.hpp"
#include "service/wire.hpp"
#include "telemetry/metrics.hpp"

namespace bfly::service {

/**
 * Spare-budget pool shared by the session muxes of a sharded server.
 * Holds bytes no shard currently owns: idle shards donate into it,
 * pressured shards steal from it. Lock-free; one atomic.
 */
struct BudgetPool
{
    std::atomic<std::size_t> spare{0};
};

struct MuxConfig
{
    /** Per-session ingest queue watermark: a chunk is admitted while the
     *  queued bytes are below this (LogBuffer-style overshoot by at most
     *  one chunk), shed with Busy otherwise. */
    std::size_t sessionQueueBytes = 256 * 1024;
    /** Server-wide budget over queued + decoded bytes of all sessions.
     *  A sharded server slices this evenly across its shards and lets
     *  the slices rebalance through a BudgetPool. */
    std::size_t globalBudgetBytes = 64 * 1024 * 1024;
    /** Hard per-session footprint cap; exceeding it is a Reject, not a
     *  Busy (the client's data simply does not fit). Clamped to the
     *  global budget. */
    std::size_t maxSessionBytes = 16 * 1024 * 1024;
    /** Hard cap on decoded events per session. */
    std::size_t maxSessionEvents = 1u << 22;
    /** Backoff hint carried in Busy frames. */
    std::uint64_t busyRetryMs = 2;
    /** Test hook: delay (ms) before the pump decodes each chunk, making
     *  queue-full shedding deterministic in back-pressure tests. */
    int debugPumpDelayMs = 0;
    /** Adaptive epoch sizing + graduated admission: per-session and
     *  per-shard EpochControllers replace the single queue-watermark
     *  cliff with the grow-h → Partial → Busy → Shed ladder, and the
     *  realized epoch spans are surfaced in SessionResult so the server
     *  can advertise them (EpochHint). Off by default — the legacy
     *  admission path is untouched when false. */
    bool adaptive = false;
    /** Test/chaos hook: ignore telemetry and cycle the coalescing width
     *  1→2→4→8 per epoch group, guaranteeing several h-changes within
     *  every session regardless of load (the differential harness then
     *  proves bit-identity across every adaptation point). */
    bool adaptiveForceCycle = false;
    /** Ladder thresholds and the size-driven coalescing target. */
    ControllerConfig controller;
};

/** Verdict of one admission attempt. */
enum class Admission : std::uint8_t {
    Accepted, ///< chunk applied (in sequence, within budget)
    Ignored,  ///< out-of-sequence duplicate/flood; silently dropped
    Busy,     ///< shed; client must rewind to busy.seq and retry
    Rejected, ///< session is over; reject carries the reason
};

/** What a finished session hands back to the event loop. */
struct SessionResult
{
    std::uint64_t sessionId = 0;
    bool failed = false;
    RejectInfo reject;   ///< valid when failed
    RemoteReport report; ///< valid when !failed
    /** Realized per-epoch source spans (adaptive runs; empty = source
     *  slicing). The server forwards these in EpochHint frames. */
    std::vector<std::uint32_t> realizedSpans;
    /** How often the realized merge width changed mid-stream. */
    std::uint64_t hChanges = 0;
    /** v4: the client's declared ElisionPlan fingerprint (echo). */
    std::uint64_t planFingerprint = 0;
    /** v4: SiteSummary events decoded from this session's log. */
    std::uint64_t summaryEvents = 0;
    /** Session degraded to Partial: ship only the Summary fingerprint. */
    bool degradePartial = false;
    /** Snapshot of the session's private telemetry registry. */
    telemetry::RegistrySnapshot metrics;
};

class SessionMux
{
  public:
    struct Session; ///< defined in session_mux.cpp

    /**
     * @param wake  called (possibly from a pool thread) after a result
     *              is queued; must be async-signal-ish cheap.
     * @param shard_budget_bytes  this shard's slice of the global byte
     *              budget; 0 means the whole config.globalBudgetBytes
     *              (the single-shard/legacy layout).
     * @param rebalance  shared spare-budget pool linking sibling shards;
     *              null disables steal/donate (single shard). Borrowed,
     *              must outlive the mux.
     */
    SessionMux(WorkerPool &pool, const MuxConfig &config,
               std::function<void()> wake,
               std::size_t shard_budget_bytes = 0,
               BudgetPool *rebalance = nullptr);
    /** Drains all in-flight pump/analysis tasks before returning. */
    ~SessionMux();

    SessionMux(const SessionMux &) = delete;
    SessionMux &operator=(const SessionMux &) = delete;

    /**
     * Budget charge for @p n decoded events. The pump makes one
     * accounting call per drained chunk with the *net* delta — this
     * charge minus the raw-byte credit — so admission math and tests
     * must agree on the per-event footprint; the assert pins it.
     */
    static constexpr std::size_t
    decodedEventBytes(std::size_t n)
    {
        static_assert(sizeof(Event) == 40,
                      "Event grew: retune SessionMux byte budgets");
        return n * sizeof(Event);
    }

    /** Admit a new session. @return its id. A sharded server passes a
     *  @p preassigned_id (server-global, nonzero) so ids stay unique
     *  across shards; 0 draws from this mux's own counter. */
    std::uint64_t open(const SessionSpec &spec,
                       std::uint64_t preassigned_id = 0);

    /** Admission + enqueue of one log chunk. On Busy fills @p busy, on
     *  Rejected fills @p reject (and the session is gone). */
    Admission submitChunk(std::uint64_t session_id,
                          const ChunkHeader &header,
                          std::span<const std::uint8_t> log,
                          BusyInfo &busy, RejectInfo &reject);

    /** Admission of the end-of-trace marker (same sequence space). */
    Admission submitTraceEnd(std::uint64_t session_id, std::uint64_t seq,
                             BusyInfo &busy, RejectInfo &reject);

    /** Connection died: drop the session and free its budget. */
    void abort(std::uint64_t session_id);

    /** Results completed since the last drain (any order). */
    std::vector<SessionResult> drainCompleted();

    /** Bytes currently accounted against the global budget. */
    std::size_t globalBytes() const;

    /** Sessions currently open (excludes completed/aborted). */
    std::size_t activeSessions() const;

    /** Bytes this shard may currently admit (base slice +- rebalance). */
    std::size_t budgetBytes() const;

    /** Reactor idle tick: if the shard is fully idle (no sessions, no
     *  accounted bytes) donate everything above half the base slice to
     *  the shared pool. No-op without a pool. */
    void donateIdleBudget();

    /** Budget-rebalance observability. */
    std::uint64_t budgetSteals() const;
    std::size_t budgetStolenBytes() const;
    std::size_t budgetDonatedBytes() const;

    /** Shard-wide degradation rung (Normal when not adaptive). */
    DegradeLevel shardLevel() const;

    /** True when the adaptive ladder says new sessions must be shed
     *  (the server answers SessionOpen with RejectCode::Overload). */
    bool shedNewSessions() const;

    /** Reactor idle tick for the shard ladder: feed it a sample built
     *  from the shard's current budget occupancy. Without this a shard
     *  that escalated to Shed while its last sessions drained would
     *  never observe another admission sample — and so never recover.
     *  Rate-limited internally to one sample per 100ms; no-op when not
     *  adaptive. */
    void tickShardController();

  private:
    static void pumpTrampoline(void *ctx, std::size_t);
    void pump(const std::shared_ptr<Session> &session);
    static void analysisTrampoline(void *ctx, std::size_t);
    void analyze(const std::shared_ptr<Session> &session);

    /** Queue the analysis job if the session is ready for it. Caller
     *  holds the session mutex. */
    void maybeScheduleAnalysis(const std::shared_ptr<Session> &session);

    /** Fail the session from a pool task and publish the result. */
    void failSession(const std::shared_ptr<Session> &session,
                     RejectCode code, std::string message);

    void publish(SessionResult result);

    std::shared_ptr<Session> find(std::uint64_t session_id);
    void erase(std::uint64_t session_id);

    /** Under pressure for @p need more bytes: grab spare budget from
     *  the pool (at least a quantum, to amortize the contention).
     *  @return true if any budget was acquired. */
    bool stealBudget(std::size_t need);

    WorkerPool &pool_;
    MuxConfig config_;
    std::function<void()> wake_;

    /** This shard's base budget slice and its current (rebalanced)
     *  value. budgetBytes_ only moves through steal/donate, so
     *  sum(shards) + pool->spare is conserved. */
    std::size_t baseBudgetBytes_ = 0;
    std::atomic<std::size_t> budgetBytes_{0};
    BudgetPool *rebalance_ = nullptr;
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::size_t> stolenBytes_{0};
    std::atomic<std::size_t> donatedBytes_{0};

    /** Shard-wide ladder fed by every session's admission samples.
     *  Guarded by its own mutex (taken after a session mutex, never
     *  before — the only nesting order used). */
    mutable std::mutex shardCtlMutex_;
    EpochController shardController_;
    std::chrono::steady_clock::time_point lastCtlTick_{};

    mutable std::mutex mutex_; ///< guards sessions_ and nextId_
    std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions_;
    std::uint64_t nextId_ = 1;

    std::atomic<std::size_t> globalBytes_{0};

    std::mutex completedMutex_;
    std::vector<SessionResult> completed_;

    /** Completion domain of all pump/analysis tasks this mux submitted. */
    TaskGroup jobs_;
};

} // namespace bfly::service

#endif // BUTTERFLY_SERVICE_SESSION_MUX_HPP
