/**
 * @file
 * Seeded workload generation for the service benchmark.
 *
 * Every trace is built the same way:
 *   make* -> interleave (SC) -> EpochLayout::byGlobalSeq(2048 x threads)
 *         -> withHeartbeatMarkers
 * and its reference report is computed once, here, with
 * analyzeReference over the byGlobalSeq layout. The same seed yields the
 * same traces, specs, rotations and references.
 */

#ifndef BFLY_PERFBENCH_INPUTS_HPP
#define BFLY_PERFBENCH_INPUTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/** The workload names this benchmark knows, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Generate @p workload's sessions from @p seed. @pre the name is known. */
Plan makePlan(const std::string &workload, std::uint64_t seed);

} // namespace perfbench

#endif // BFLY_PERFBENCH_INPUTS_HPP
