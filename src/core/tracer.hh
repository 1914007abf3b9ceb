/**
 * @file
 * Execution tracer: records every FU kernel of a run and exports the
 * spans as Chrome trace-event JSON (chrome://tracing / Perfetto), giving
 * the simulator an equivalent of the paper's device-level
 * visualizations: one timeline row per FU, one slice per kernel named by
 * its uOP kind, with stall structure visible as gaps.
 *
 * Each FU appends its kernel's [begin, end) in Fu::mainLoop, where it
 * already brackets kernels for FuStats::busy_ticks (Fu::setSpanSink).
 * The tracer schedules nothing, so a traced run takes exactly the ticks
 * of an untraced one, and each FU's slices sum to its busy_ticks.
 */

#ifndef RSN_CORE_TRACER_HH
#define RSN_CORE_TRACER_HH

#include <string>
#include <vector>

#include "core/machine.hh"

namespace rsn::core {

class Tracer
{
  public:
    /** Record @p machine's kernels (every run while attached); detaches
     *  on destruction. */
    explicit Tracer(RsnMachine &machine);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Recorded kernel spans, one list per FU in machine.fus() order. */
    const std::vector<std::vector<fu::KernelSpan>> &spans() const
    {
        return spans_;
    }

    /** Total recorded slices. */
    std::size_t sliceCount() const;

    /** Render as Chrome trace-event JSON (complete events, us scale). */
    std::string toChromeJson() const;

    /** Write the JSON to @p path; returns false on I/O failure. */
    bool writeChromeJson(const std::string &path) const;

  private:
    RsnMachine &mach_;
    std::vector<std::vector<fu::KernelSpan>> spans_;
};

} // namespace rsn::core

#endif // RSN_CORE_TRACER_HH
