// dse_sweep: a timing-only design-space sweep through SweepExecutor at
// nproc lanes. No payload math: engine dispatch and codegen are the host
// time, and every point is distinct (a program cache would be bypassed).
// Each executor call makes its lanes afresh, so a pass builds one
// machine per lane in each of the 9 series, whatever the bandwidth.
// Nothing here is random — no payloads, no faults — so the inputs do
// not depend on the seed, and the job order is the fixed batch-major
// order of the point list.

#include <algorithm>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "fu/kernel_registry.hh"
#include "layers.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/sweep.hh"
#include "trace.hh"
#include "workloads.hh"

namespace rsnbench {

namespace {

using rsn::core::MachineConfig;
using rsn::lib::ScheduleOptions;
using rsn::lib::SweepLane;

constexpr std::uint32_t kBatches[] = {1, 2, 6, 16};
constexpr double kBwScales[] = {0.5, 1.0, 2.0};
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

struct Point {
    rsn::lib::Model model;
    std::uint32_t batch = 1;
};

/** One executor call: one schedule at one DRAM bandwidth scale. */
struct Series {
    MachineConfig cfg;
    ScheduleOptions opts;
    std::vector<Point> points;
};

struct PointOut {
    double host_ms = 0;
    bool completed = false;
    rsn::Tick ticks = 0;
    double sim_s = 0;
    SimStats sim;
    std::uint64_t packets = 0, program_bytes = 0;
};

std::vector<Series>
buildSeries()
{
    const ScheduleOptions schedules[] = {ScheduleOptions::optimized(),
                                         ScheduleOptions::bwOptimized(),
                                         ScheduleOptions::noOptimize()};
    std::vector<Series> all;
    for (const ScheduleOptions &opts : schedules)
        for (double bw : kBwScales) {
            Series s;
            s.cfg = MachineConfig::vck190(/*functional=*/false);
            for (rsn::mem::DramConfig *d : {&s.cfg.ddr, &s.cfg.lpddr}) {
                d->read_gbps *= bw;
                d->write_gbps *= bw;
            }
            s.opts = opts;
            for (std::uint32_t b : kBatches) {
                s.points.push_back({rsn::lib::bertLargeEncoder(b, 512, true), b});
                s.points.push_back({rsn::lib::vitEncoder(b, true), b});
                s.points.push_back({rsn::lib::ncf(b), b});
                s.points.push_back({rsn::lib::mlp(b), b});
                // The rsn-sim --model tiny shape.
                s.points.push_back(
                    {rsn::lib::tinyEncoder(b, 32, 64, 4, 128, true), b});
            }
            all.push_back(std::move(s));
        }
    return all;
}

/**
 * One pass: every series through the executor, the way the fig/table
 * benches call runSweepPoints. out is indexed series-major in point
 * order. Adds the process CPU time (all lanes) and the wall time of the
 * executor calls to @p m.
 */
void
runPass(const rsn::lib::SweepExecutor &ex, const std::vector<Series> &all,
        bool traced, std::uint64_t op_base, std::vector<PointOut> &out,
        Measured &m)
{
    std::size_t base = 0;
    for (const Series &s : all) {
        const auto t0 = Clock::now();
        const double cpu0 = processCpuMs();
        {
            trace::Span call("lib.sweep", 0);
            trace::setRoot(call.id(), 0);
            ex.forEach(s.points.size(), [&](SweepLane &lane, std::size_t i) {
                const std::uint64_t op = op_base + base + i;
                PointOut &o = out[base + i];
                rsn::core::RsnMachine *mach;
                rsn::lib::CompiledModel compiled;
                rsn::core::RunResult res;
                const auto p0 = Clock::now();
                {
                    trace::Span op_span("op", op);
                    {
                        trace::Span m("core.machine.reset", op);
                        const std::size_t built = lane.machinesBuilt();
                        mach = &lane.machine(s.cfg);
                        if (lane.machinesBuilt() != built)
                            m.rename("core.machine.build");
                    }
                    {
                        trace::Span c("lib.codegen", op);
                        compiled = rsn::lib::compileModel(
                            *mach, s.points[i].model, s.opts);
                    }
                    trace::Span r("core.machine.run", op);
                    res = mach->run(compiled.program);
                }
                o.host_ms = msBetween(p0, Clock::now());
                o.completed = res.completed;
                o.ticks = res.ticks;
                o.sim_s = res.ms / 1e3;
                if (traced) {
                    o.sim = SimStats{};
                    o.sim.add(*mach, res.ticks);
                    o.packets = compiled.program.size();
                    o.program_bytes = compiled.program.totalBytes();
                }
            });
            trace::setRoot(0, 0);
        }
        m.cpu_ms += processCpuMs() - cpu0;
        m.wall_ms += msBetween(t0, Clock::now());
        base += s.points.size();
    }
}

std::size_t
pointCount(const std::vector<Series> &all)
{
    std::size_t n = 0;
    for (const Series &s : all)
        n += s.points.size();
    return n;
}

} // namespace

Result
runDseSweep(const Args &args)
{
    Result r;
    const rsn::lib::SweepExecutor ex(rsn::lib::SweepExecutor::defaultJobs());

    // Set-up: registry probe, the point list, one warm-up pass whose
    // ticks every later pass must reproduce exactly.
    std::vector<double> setup_s;
    std::vector<Series> all;
    std::vector<PointOut> first;
    double cpu0 = 0;  // the first set-up counts from process start
    for (int i = 0; i < kSetups; ++i) {
        rsn::kernel::probeCpu();
        rsn::kernel::Registry::instance();
        all = buildSeries();
        first.assign(pointCount(all), PointOut{});
        Measured warm;
        runPass(ex, all, false, 0, first, warm);
        const double cpu = processCpuMs();
        setup_s.push_back((cpu - cpu0) / 1e3);
        cpu0 = cpu;
    }
    const std::size_t npts = pointCount(all);
    std::vector<std::uint32_t> batch_of;
    for (const Series &s : all)
        for (const Point &p : s.points)
            batch_of.push_back(p.batch);
    for (std::size_t i = 0; i < npts; ++i)
        if (!first[i].completed)
            r.fail("warm-up point " + std::to_string(i) + " did not complete");

    EndToEnd e;
    double batch_sum = 0, sim_s_sum = 0;
    std::vector<double> pass_ticks;
    for (std::size_t i = 0; i < npts; ++i) {
        e.sim_ticks += double(first[i].ticks);
        pass_ticks.push_back(double(first[i].ticks));
        batch_sum += batch_of[i];
        sim_s_sum += first[i].sim_s;
    }
    e.sim_p50_ticks = quantile(pass_ticks, 0.5);
    e.sim_p99_ticks = quantile(pass_ticks, 0.99);
    e.sim_goodput_rps = batch_sum / sim_s_sum;

    std::uint64_t op_base = npts;
    double ok_batch = 0, all_batch = 0;
    LayerStats layers;
    std::vector<PointOut> out(npts);
    double traced_job_ms = 0;
    const auto measured = runPasses(args, e, layers, [&](bool traced) {
        Measured p;
        std::fill(out.begin(), out.end(), PointOut{});
        runPass(ex, all, traced, op_base, out, p);
        // host.run_ms is the CPU cost of the whole sweep. A single
        // point's time depends on which points share the lanes with it.
        p.sample_ms.push_back(p.cpu_ms);
        op_base += npts;
        for (std::size_t i = 0; i < npts; ++i) {
            const PointOut &o = out[i];
            ++r.attempted;
            all_batch += batch_of[i];
            if (!o.completed)
                r.opFailed("point " + std::to_string(i) +
                           ": run did not complete");
            else if (o.ticks != first[i].ticks)
                r.opFailed("point " + std::to_string(i) +
                           ": ticks differ from the warm-up pass");
            else
                ok_batch += batch_of[i];
            if (traced) {
                traced_job_ms += o.host_ms;
                layers.sim += o.sim;
                layers.packets += o.packets;
                layers.program_bytes += o.program_bytes;
            }
        }
        p.points = double(npts);
        p.requests = batch_sum;
        return p;
    });

    e.setup_s = median(setup_s);
    e.sim_served_ratio = ok_batch / all_batch;
    emitEndToEnd(r, e);

    if (args.trace) {
        layers.spans = trace::spans();
        layers.kernels = trace::kernelCensus();
        for (const auto &k : layers.kernels)
            if (k.calls != 0)
                r.fail("payload kernels ran on the timing-only sweep");
        const unsigned lanes = std::min<unsigned>(
            ex.jobs(), static_cast<unsigned>(all.front().points.size()));
        layers.sweep_parallel_efficiency =
            traced_job_ms / (lanes * measured[1].wall_ms);
        emitLayerMetrics(r, layers);
    }
    return r;
}

} // namespace rsnbench
