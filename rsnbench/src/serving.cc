// serving_chaos: open-loop Poisson serving under the chaos fault preset,
// one runServingSweep call per pass with one load point per lane. The
// only workload for the scheduler, retries, the circuit breaker, the
// fault injector and rebuilds after hard faults, and the only one that
// recompiles repeated programs. Host time is closed loop (simulations
// run back to back); request latency is open loop in simulated time,
// counted from arrival.

#include <algorithm>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "fu/kernel_registry.hh"
#include "layers.hh"
#include "lib/sweep.hh"
#include "serve/scheduler.hh"
#include "trace.hh"
#include "workloads.hh"

namespace rsnbench {

namespace {

constexpr std::size_t kRequests = 1024;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

std::vector<rsn::serve::ServeSpec>
buildSpecs(std::uint64_t seed)
{
    rsn::serve::ServeSpec base;
    base.cfg = rsn::core::MachineConfig::vck190(/*functional=*/true);
    // Both streams are derived through mix64: serve::poissonArrivals
    // draws gap i from mix64(seed ^ 2i), so seeds differing only in
    // their low bits would replay permutations of one another's gaps.
    base.cfg.fault = rsn::sim::FaultSpec::chaosPreset(rsn::serve::mix64(~seed));
    base.classes = rsn::serve::defaultClasses();
    base.policy.fleet = 2;
    base.policy.max_batch = 4;
    base.seed = rsn::serve::mix64(seed);
    base.num_requests = kRequests;
    std::vector<rsn::serve::ServeSpec> specs;
    for (double load : kServeLoads) {
        rsn::serve::ServeSpec s = base;
        s.offered_load = load;
        specs.push_back(std::move(s));
    }
    return specs;
}

/**
 * Per-report check: every request resolved exactly once, and the fleet
 * served at least 90% of them. Under the chaos preset a working fleet
 * serves more than 99%; a datapath whose outputs fail the scheduler's
 * FP32 check resolves every request faulted, which the census alone
 * would accept.
 */
std::string
checkReport(const rsn::serve::ServingReport &rep)
{
    if (rep.offered != kRequests || rep.resolved() != rep.offered)
        return "census does not sum to offered";
    if (rep.served() * 10 < rep.offered * 9)
        return "fewer than 90% of requests served";
    return "";
}

/**
 * One pass: every load point through runServingSweep. Adds its process
 * CPU time (all lanes) and wall time to @p m.
 */
std::vector<rsn::serve::ServingReport>
runPass(const rsn::lib::SweepExecutor &ex,
        const std::vector<rsn::serve::ServeSpec> &specs, Measured &m)
{
    const auto t0 = Clock::now();
    const double cpu0 = processCpuMs();
    std::vector<rsn::serve::ServingReport> reports;
    {
        trace::Span span("serve", 0);
        trace::setRoot(span.id(), 0);
        reports = rsn::serve::runServingSweep(ex, specs);
        trace::setRoot(0, 0);
    }
    m.cpu_ms += processCpuMs() - cpu0;
    m.wall_ms += msBetween(t0, Clock::now());
    return reports;
}

} // namespace

Result
runServingChaos(const Args &args)
{
    Result r;
    const rsn::lib::SweepExecutor ex(rsn::lib::SweepExecutor::defaultJobs());

    // Set-up: registry probe, the specs, one warm-up pass whose reports
    // every later pass must reproduce byte for byte.
    std::vector<double> setup_s;
    std::vector<rsn::serve::ServeSpec> specs;
    std::vector<rsn::serve::ServingReport> first;
    std::vector<std::string> first_text;
    double cpu0 = 0;  // the first set-up counts from process start
    for (int i = 0; i < kSetups; ++i) {
        rsn::kernel::probeCpu();
        rsn::kernel::Registry::instance();
        specs = buildSpecs(args.seed);
        Measured warm;
        first = runPass(ex, specs, warm);
        const double cpu = processCpuMs();
        setup_s.push_back((cpu - cpu0) / 1e3);
        cpu0 = cpu;
    }
    for (const auto &rep : first) {
        first_text.push_back(rep.toString());
        if (const std::string why = checkReport(rep); !why.empty())
            r.fail("warm-up pass, load " +
                   std::to_string(int(rep.offered_load)) + ": " + why);
    }

    // Latency at the lowest load (below saturation); goodput at the
    // highest. At 80k req/s the p99 of 1024 requests moves by a third
    // between seeds, so the 80k quantiles are per-layer only.
    EndToEnd e;
    const rsn::serve::ServingReport &low = first.front();  // 10k req/s
    const rsn::serve::ServingReport &top = first.back();   // 80k req/s
    double served = 0, offered = 0, runs_per_pass = 0;
    for (const auto &rep : first) {
        e.sim_ticks += double(rep.horizon);
        served += double(rep.served());
        offered += double(rep.offered);
        runs_per_pass += double(rep.runs);
    }
    e.sim_p50_ticks = double(low.p50);
    e.sim_p99_ticks = double(low.p99);
    e.sim_goodput_rps = top.goodput;
    e.sim_served_ratio = served / offered;

    LayerStats layers;
    runPasses(args, e, layers, [&](bool) {
        Measured p;
        const auto reports = runPass(ex, specs, p);
        p.sample_ms.push_back(p.cpu_ms);
        p.points = runs_per_pass;
        p.requests = offered;
        for (std::size_t i = 0; i < reports.size(); ++i) {
            ++r.attempted;
            std::string why = checkReport(reports[i]);
            if (why.empty() && reports[i].toString() != first_text[i])
                why = "report differs from the warm-up pass";
            if (!why.empty())
                r.opFailed("load " +
                           std::to_string(int(reports[i].offered_load)) +
                           ": " + why);
        }
        return p;
    });

    e.setup_s = median(setup_s);
    emitEndToEnd(r, e);

    if (args.trace) {
        layers.spans = trace::spans();
        layers.kernels = trace::kernelCensus();
        layers.serve_reports = first;
        layers.serve_lanes =
            std::min<unsigned>(ex.jobs(), static_cast<unsigned>(specs.size()));
        emitLayerMetrics(r, layers);
    }
    return r;
}

} // namespace rsnbench
