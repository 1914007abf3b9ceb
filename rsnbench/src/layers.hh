/**
 * @file
 * Per-layer metrics of the traced run (README.md, "Per-layer metrics").
 *
 * Every workload fills the same LayerStats and emitLayerMetrics prints
 * the same names for all of them, so a traced run always publishes the
 * full per-layer set; a layer a workload does not reach reads 0 (no
 * kernel calls on dse_sweep, no serving counters on the encoders).
 * Values are per pass of the workload's op list, averaged over the
 * traced passes; simulated counts are exact because a pass is
 * deterministic.
 */

#ifndef RSNBENCH_LAYERS_HH
#define RSNBENCH_LAYERS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common.hh"
#include "core/machine.hh"
#include "serve/scheduler.hh"
#include "trace.hh"

namespace rsnbench {

/** Simulated-machine counters summed over runs (read after each run). */
struct SimStats {
    std::array<std::uint64_t, rsn::kNumFuTypes> fu_busy{};
    std::array<std::uint64_t, rsn::kNumFuTypes> fu_uops{};
    std::uint64_t mme_capacity = 0;  ///< Σ (MME count × run ticks)
    std::uint64_t ddr_busy = 0, ddr_read = 0, ddr_written = 0;
    std::uint64_t lpddr_busy = 0, lpddr_read = 0;
    std::uint64_t link_busy = 0, link_bytes = 0;
    std::uint64_t events = 0;

    /** Add the counters of @p mach after a run of @p ticks. */
    void add(rsn::core::RsnMachine &mach, rsn::Tick ticks);
    SimStats &operator+=(const SimStats &o);
};

struct LayerStats {
    /** Traced passes the totals below cover (>= 1 in a traced run). */
    std::uint64_t passes = 0;
    /** Spans of the traced passes (op spans, library calls). */
    std::vector<trace::SpanRec> spans;
    trace::KernelCensus kernels{};
    SimStats sim;
    std::uint64_t packets = 0, program_bytes = 0;

    /** referenceForward time for one pass of the models (set-up). */
    double ref_forward_ms = 0;
    /** Σ job ms / (lanes × Σ call wall ms), dse_sweep only. */
    double sweep_parallel_efficiency = 0;
    /** Lanes the serving sweep ran on (serve.kernel_share). */
    unsigned serve_lanes = 0;
    /** Reports of one serving pass, in load order. */
    std::vector<rsn::serve::ServingReport> serve_reports;

    /** Output accuracy over every produced tensor (encoders). */
    double max_rel_err = 0, min_pcc = 0;

    /** Traced / untraced, from the same process. */
    double overhead_run_ms_p50 = 0, overhead_points_per_s = 0;
};

/** Load points of serving_chaos, req/s (named in serve.* metrics). */
inline constexpr std::array<double, 4> kServeLoads = {10000, 20000, 40000,
                                                      80000};

/**
 * Append the full per-layer metric set for @p s to @p r, and check that
 * the kernel time fits inside the spans that enclose it: the runs, or on
 * serving_chaos the serving calls times their lanes.
 */
void emitLayerMetrics(Result &r, const LayerStats &s);

/** Record and print the traced / untraced ratios of one run. */
void setOverhead(LayerStats &s, double untraced_p50, double traced_p50,
                 double untraced_pps, double traced_pps);

/** Σ duration (ms) and count of the spans named @p name. */
double spanMs(const std::vector<trace::SpanRec> &spans, const char *name,
              std::uint64_t *count = nullptr);

} // namespace rsnbench

#endif // RSNBENCH_LAYERS_HH
