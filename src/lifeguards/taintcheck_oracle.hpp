/**
 * @file
 * Exact sequential TAINTCHECK over a serialized execution order.
 *
 * Ground truth for the butterfly TAINTCHECK: replays the true visibility
 * order, propagating taint exactly, and flags every Use of a tainted value.
 * Taint semantics (matching the butterfly side):
 *   - TaintSrc taints its range; Untaint untaints it;
 *   - Assign taints the destination iff any source is tainted;
 *   - a plain Write stores trusted data (untaints its range);
 *   - Use of a tainted location is the error ADDRCHECK... TAINTCHECK flags.
 */

#ifndef BUTTERFLY_LIFEGUARDS_TAINTCHECK_ORACLE_HPP
#define BUTTERFLY_LIFEGUARDS_TAINTCHECK_ORACLE_HPP

#include "common/interval_set.hpp"
#include "common/shadow_memory.hpp"
#include "lifeguards/report.hpp"
#include "trace/trace.hpp"

namespace bfly {

/** Configuration shared with the butterfly TAINTCHECK. */
struct TaintCheckConfig
{
    unsigned granularity = 4;
    Addr keyOf(Addr addr) const { return addr / granularity; }

    /**
     * Call @p fn(k) for each key an operation of @p size bytes at
     * @p base touches (keyRunOf: saturating at the top of the address
     * space); none if it has no address. Shared by the butterfly
     * lifeguard and the oracle.
     */
    template <typename Fn>
    void
    forEachKeyOf(Addr base, std::uint16_t size, Fn &&fn) const
    {
        if (base == kNoAddr)
            return;
        forEachKey(keyRunOf(base, size,
                            [this](Addr a) { return keyOf(a); }),
                   fn);
    }
};

/** Sequential, exact TAINTCHECK. */
class TaintCheckOracle
{
  public:
    explicit TaintCheckOracle(const TaintCheckConfig &config);

    /** Replay the trace in true visibility (gseq) order. */
    void runOnTrace(const Trace &trace);

    void processOne(ThreadId tid, std::uint64_t index, const Event &e);

    const ErrorLog &errors() const { return errors_; }

    /** True if @p addr is currently tainted. */
    bool tainted(Addr addr) const;

  private:
    TaintCheckConfig config_;
    ShadowMemory<std::uint8_t> taint_{0};
    ErrorLog errors_;
};

} // namespace bfly

#endif // BUTTERFLY_LIFEGUARDS_TAINTCHECK_ORACLE_HPP
