#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

namespace rsnbench {

namespace {

/** Lower-case FU type names, indexed by rsn::FuType. */
const char *const kFuNames[rsn::kNumFuTypes] = {
    "mme", "mema", "memb", "memc", "mesha", "meshb", "ddr", "lpddr"};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

} // namespace

void
SimStats::add(rsn::core::RsnMachine &mach, rsn::Tick ticks)
{
    std::uint64_t mmes = 0;
    for (const auto &fu : mach.fus()) {
        const auto t = static_cast<std::size_t>(fu->id().type);
        fu_busy[t] += fu->stats().busy_ticks;
        fu_uops[t] += fu->stats().uops;
        mmes += fu->id().type == rsn::FuType::Mme;
    }
    mme_capacity += mmes * ticks;
    ddr_busy += mach.ddrChannel().busyTicks();
    ddr_read += mach.ddrChannel().bytesRead();
    ddr_written += mach.ddrChannel().bytesWritten();
    lpddr_busy += mach.lpddrChannel().busyTicks();
    lpddr_read += mach.lpddrChannel().bytesRead();
    for (const auto &s : mach.streams()) {
        link_busy += s->busyTicks();
        link_bytes += s->bytesTransferred();
    }
    events += mach.engine().eventsProcessed();
}

SimStats &
SimStats::operator+=(const SimStats &o)
{
    for (std::size_t t = 0; t < fu_busy.size(); ++t) {
        fu_busy[t] += o.fu_busy[t];
        fu_uops[t] += o.fu_uops[t];
    }
    mme_capacity += o.mme_capacity;
    ddr_busy += o.ddr_busy;
    ddr_read += o.ddr_read;
    ddr_written += o.ddr_written;
    lpddr_busy += o.lpddr_busy;
    lpddr_read += o.lpddr_read;
    link_busy += o.link_busy;
    link_bytes += o.link_bytes;
    events += o.events;
    return *this;
}

double
spanMs(const std::vector<trace::SpanRec> &spans, const char *name,
       std::uint64_t *count)
{
    double ms = 0;
    std::uint64_t n = 0;
    for (const trace::SpanRec &s : spans)
        if (std::strcmp(s.name, name) == 0) {
            ms += (s.end_ns - s.start_ns) / 1e6;
            ++n;
        }
    if (count)
        *count = n;
    return ms;
}

void
emitLayerMetrics(Result &r, const LayerStats &s)
{
    const double P = static_cast<double>(std::max<std::uint64_t>(s.passes, 1));
    const auto &sp = s.spans;
    auto m = [&](const std::string &n, double v, const char *unit) {
        r.layerMetric(n, v, unit);
    };

    std::uint64_t builds = 0, compiles = 0;
    m("core.machine.build_ms", spanMs(sp, "core.machine.build", &builds) / P,
      "ms");
    m("core.machine.builds", builds / P, "count");
    m("core.machine.reset_ms", spanMs(sp, "core.machine.reset") / P, "ms");

    // Run time minus the payload kernels called inside the run spans.
    double run_ms = 0, run_other_ms = 0;
    for (const trace::SpanRec &x : sp)
        if (std::strcmp(x.name, "core.machine.run") == 0) {
            run_ms += (x.end_ns - x.start_ns) / 1e6;
            run_other_ms += (x.end_ns - x.start_ns - x.kernel_ns) / 1e6;
        }
    m("core.machine.run_ms", run_ms / P, "ms");
    m("core.machine.run_other_ms", run_other_ms / P, "ms");

    m("lib.codegen.compile_ms", spanMs(sp, "lib.codegen", &compiles) / P,
      "ms");
    m("lib.codegen.calls", compiles / P, "count");
    m("isa.packets", s.packets / P, "count");
    m("isa.program_bytes", s.program_bytes / P, "bytes");
    m("lib.runner.init_ms", spanMs(sp, "lib.runner") / P, "ms");
    m("ref.forward_ms", s.ref_forward_ms, "ms");
    m("ref.output_max_rel_err", s.max_rel_err, "ratio");
    m("ref.output_min_pcc", s.min_pcc, "ratio");

    const double events = s.sim.events / P;
    m("sim.engine.events", events, "count");
    m("sim.engine.ns_per_event", ratio(run_other_ms / P * 1e6, events), "ns");

    double kernel_ms = 0;
    for (std::size_t c = 0; c < trace::kNumKernelClasses; ++c) {
        const auto cls = static_cast<trace::KernelClass>(c);
        const trace::KernelTotals &k = s.kernels[c];
        const std::string base =
            std::string("fu.kernel.") + trace::kernelClassName(cls);
        m(base + ".ms", k.ns / 1e6 / P, "ms");
        m(base + ".calls", k.calls / P, "count");
        kernel_ms += k.ns / 1e6;
        // work/ns is FLOP/ns = GFLOP/s, or bytes/ns = GB/s.
        if (cls == trace::KernelClass::GemmF32 ||
            cls == trace::KernelClass::GemmBf16)
            m(base + ".gflop_per_s", ratio(double(k.work), double(k.ns)),
              "GFLOP/s");
        if (cls == trace::KernelClass::ConvertToF32 ||
            cls == trace::KernelClass::ConvertFromF32)
            m(base + ".gb_per_s", ratio(double(k.work), double(k.ns)),
              "GB/s");
    }

    m("lib.sweep.call_ms", spanMs(sp, "lib.sweep") / P, "ms");
    m("lib.sweep.parallel_efficiency", s.sweep_parallel_efficiency, "ratio");

    for (std::size_t t = 0; t < s.sim.fu_busy.size(); ++t) {
        const std::string base = std::string("fu.") + kFuNames[t];
        m(base + ".busy_ticks", s.sim.fu_busy[t] / P, "ticks");
        m(base + ".uops", s.sim.fu_uops[t] / P, "count");
    }
    m("fu.mme.utilization",
      ratio(double(s.sim.fu_busy[0]), double(s.sim.mme_capacity)), "ratio");
    m("mem.ddr.busy_ticks", s.sim.ddr_busy / P, "ticks");
    m("mem.ddr.bytes_read", s.sim.ddr_read / P, "bytes");
    m("mem.ddr.bytes_written", s.sim.ddr_written / P, "bytes");
    m("mem.lpddr.busy_ticks", s.sim.lpddr_busy / P, "ticks");
    m("mem.lpddr.bytes_read", s.sim.lpddr_read / P, "bytes");
    m("net.link.busy_ticks", s.sim.link_busy / P, "ticks");
    m("net.link.bytes", s.sim.link_bytes / P, "bytes");

    const double serve_ms = spanMs(sp, "serve");
    if (kernel_ms > (run_ms > 0 ? run_ms : serve_ms * s.serve_lanes))
        r.fail("payload-kernel time exceeds the run time enclosing it");
    m("serve.run_ms", serve_ms / P, "ms");
    m("serve.kernel_share", ratio(kernel_ms, serve_ms * s.serve_lanes),
      "ratio");
    rsn::serve::ServingReport sum;
    for (const auto &rep : s.serve_reports) {
        sum.offered += rep.offered;
        sum.ok += rep.ok;
        sum.retried += rep.retried;
        sum.shed += rep.shed;
        sum.timeout += rep.timeout;
        sum.faulted += rep.faulted;
        sum.retry_dispatches += rep.retry_dispatches;
        sum.runs += rep.runs;
        sum.machines_built += rep.machines_built;
        sum.machines_reused += rep.machines_reused;
        sum.faults_injected += rep.faults_injected;
        sum.breaker_opened += rep.breaker_opened;
        sum.max_queue_depth = std::max(sum.max_queue_depth,
                                       rep.max_queue_depth);
    }
    m("serve.runs", sum.runs, "count");
    m("serve.retry_dispatches", sum.retry_dispatches, "count");
    m("serve.machines_built", sum.machines_built, "count");
    m("serve.machines_reused", sum.machines_reused, "count");
    m("serve.faults_injected", sum.faults_injected, "count");
    m("serve.max_queue_depth", sum.max_queue_depth, "count");
    m("serve.breaker_opened", sum.breaker_opened, "count");
    m("serve.shed", sum.shed, "count");
    m("serve.timeout", sum.timeout, "count");
    m("serve.faulted", sum.faulted, "count");
    m("serve.requests_per_run", ratio(double(sum.served()), double(sum.runs)),
      "count");
    for (std::size_t i = 0; i < kServeLoads.size(); ++i) {
        const rsn::serve::ServingReport *rep =
            i < s.serve_reports.size() ? &s.serve_reports[i] : nullptr;
        const std::string base =
            "serve.load_" + std::to_string(int(kServeLoads[i] / 1000)) + "k";
        m(base + ".p50_ticks", rep ? double(rep->p50) : 0, "ticks");
        m(base + ".p95_ticks", rep ? double(rep->p95) : 0, "ticks");
        m(base + ".p99_ticks", rep ? double(rep->p99) : 0, "ticks");
    }

    m("trace.overhead_run_ms_p50", s.overhead_run_ms_p50, "ratio");
    m("trace.overhead_points_per_s", s.overhead_points_per_s, "ratio");
}

void
setOverhead(LayerStats &s, double untraced_p50, double traced_p50,
            double untraced_pps, double traced_pps)
{
    s.overhead_run_ms_p50 = traced_p50 / untraced_p50;
    s.overhead_points_per_s = traced_pps / untraced_pps;
    std::printf("tracing overhead: run_ms_p50 %.3f traced vs %.3f "
                "untraced; points_per_s %.3f traced vs %.3f untraced\n",
                traced_p50, untraced_p50, traced_pps, untraced_pps);
}

} // namespace rsnbench
