/**
 * @file
 * Session analysis for the monitoring service: run one lifeguard over
 * one trace and produce a canonical, comparable report.
 *
 * Both sides of the wire use this module. The server decodes each
 * session's log straight into an EpochLayout (heartbeat boundaries —
 * remote logs carry no gseq) and runs the window's step loop over it on
 * the worker that owns the session; the client/loadgen computes a local
 * reference with the same loop over a layout it slices itself. The
 * reports are required to be bit-identical: records, SOS and the
 * dataflow fingerprint all match, or the service has corrupted the
 * analysis somewhere between the socket and the scheduler.
 */

#ifndef BUTTERFLY_SERVICE_ANALYZER_HPP
#define BUTTERFLY_SERVICE_ANALYZER_HPP

#include <cstdint>
#include <vector>

#include "lifeguards/report.hpp"
#include "service/wire.hpp"
#include "trace/epoch_slicer.hpp"
#include "trace/trace.hpp"

namespace bfly {
class WorkerPool;
}

namespace bfly::service {

/** Lifeguards a session may request (the SessionSpec::lifeguard byte). */
enum class Lifeguard : std::uint8_t {
    AddrCheck = 0,
    TaintCheck = 1,
    DefCheck = 2,
    ReachingDefs = 3,
    LockSet = 4,
    AddrLeak = 5,
};

inline constexpr Lifeguard kAllLifeguards[] = {
    Lifeguard::AddrCheck, Lifeguard::TaintCheck, Lifeguard::DefCheck,
    Lifeguard::ReachingDefs, Lifeguard::LockSet, Lifeguard::AddrLeak};

const char *lifeguardName(Lifeguard lg);

/** One session's observable analysis result, in canonical form. */
struct RemoteReport
{
    std::vector<ErrorRecord> records; ///< sorted (tid,index,addr,kind,size)
    std::vector<Addr> sos;            ///< final SOS, sorted
    std::uint64_t fingerprint = 0;    ///< FNV over records+SOS+dataflow
    std::uint64_t epochs = 0;
    std::uint64_t events = 0;         ///< non-heartbeat instructions
    std::uint64_t peakResidentEpochs = 0; ///< most epochs held at once

    bool identical(const RemoteReport &other) const;
};

/**
 * Run the requested lifeguard over @p layout with the step loop on the
 * calling thread (WindowSchedule::run). The server's path for every
 * session, and the client's reference.
 */
RemoteReport analyzeLayout(const SessionSpec &spec,
                           const EpochLayout &layout);

/** analyzeLayout of @p layout (the trace it slices is not read). */
inline RemoteReport
analyzeReference(const SessionSpec &spec, const Trace &,
                 const EpochLayout &layout)
{
    return analyzeLayout(spec, layout);
}

/**
 * The streamed path: the step loop over a bounded EpochStream sliced at
 * @p trace's embedded heartbeat markers, on the calling thread. Only
 * O(window) epochs of events are resident at once.
 */
RemoteReport analyzeStreaming(const SessionSpec &spec, const Trace &trace);

/**
 * The same, with the pool ignored. It stays only because the service
 * benchmark (perfbench/replay.cpp) calls analyzeStreaming(spec, trace,
 * pool); remove it together with that call in the next change to the
 * benchmark.
 */
inline RemoteReport
analyzeStreaming(const SessionSpec &spec, const Trace &trace, WorkerPool &)
{
    return analyzeStreaming(spec, trace);
}

} // namespace bfly::service

#endif // BUTTERFLY_SERVICE_ANALYZER_HPP
