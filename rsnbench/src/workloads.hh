/**
 * @file
 * The four workloads (README.md, "Workloads"). Each runs its set-ups,
 * its timed passes and its checks, and returns the end-to-end metrics
 * (every run) plus the per-layer metrics (traced runs).
 */

#ifndef RSNBENCH_WORKLOADS_HH
#define RSNBENCH_WORKLOADS_HH

#include <array>
#include <functional>
#include <vector>

#include "common.hh"
#include "layers.hh"

namespace rsnbench {

/** encoder_f32 (@p bf16 false) and encoder_bf16. */
Result runEncoder(const Args &args, bool bf16);

/** dse_sweep. */
Result runDseSweep(const Args &args);

/** serving_chaos. */
Result runServingChaos(const Args &args);

/**
 * The end-to-end metrics every workload reports, and the host-speed
 * metrics (per-layer host.*), in one place so the names and units cannot
 * drift between workloads.
 */
struct EndToEnd {
    double setup_s = 0;
    double run_ms_p50 = 0, run_ms_p90 = 0;
    std::size_t run_samples = 0;
    double points_per_s = 0, requests_per_s = 0;
    double sim_ticks = 0, sim_p50_ticks = 0, sim_p99_ticks = 0;
    double sim_goodput_rps = 0, sim_served_ratio = 0;
};
void emitEndToEnd(Result &r, const EndToEnd &e);

/**
 * What a pass over a workload's op list measured, or several summed.
 * Host time is CPU time (threadCpuMs, processCpuMs); wall time is kept
 * for the printed wall-clock line and the sweep's parallel efficiency.
 */
struct Measured {
    /** CPU ms of each run_ms sample (an op, or a whole pass). */
    std::vector<double> sample_ms;
    /** CPU ms and wall ms the work took; the points and requests it did. */
    double cpu_ms = 0, wall_ms = 0, points = 0, requests = 0;

    Measured &operator+=(const Measured &o);
    double pointsPerSecond() const { return points / (cpu_ms / 1e3); }
    double requestsPerSecond() const { return requests / (cpu_ms / 1e3); }
};

/**
 * The timed passes of a run: whole passes of @p pass until --seconds
 * have elapsed, at least one. With --trace 1 every pass runs twice,
 * untraced then traced; the traced one runs under the kernel timing
 * shim with tracing on and counts in @p layers.passes. Fills the
 * host-time fields of @p e from the untraced passes and, in a traced
 * run, the tracing overhead. Returns the untraced [0] and traced [1]
 * totals.
 */
std::array<Measured, 2>
runPasses(const Args &args, EndToEnd &e, LayerStats &layers,
          const std::function<Measured(bool traced)> &pass);

} // namespace rsnbench

#endif // RSNBENCH_WORKLOADS_HH
