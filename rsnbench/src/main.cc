// rsnbench: the repo benchmark (README.md). One process, at most nproc
// threads. Prints every metric by name with its unit, then, as the last
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any check fails, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "common.hh"
#include "fu/kernel_registry.hh"
#include "shim.hh"
#include "trace.hh"
#include "workloads.hh"

namespace rsnbench {

void
emitEndToEnd(Result &r, const EndToEnd &e)
{
    r.e2eMetric("setup_s", e.setup_s, "s");
    r.e2eMetric("peak_rss_mb", peakRssMb(), "MB");
    r.e2eMetric("sim_ticks", e.sim_ticks, "ticks");
    r.e2eMetric("sim_p50_ticks", e.sim_p50_ticks, "ticks");
    r.e2eMetric("sim_p99_ticks", e.sim_p99_ticks, "ticks");
    r.e2eMetric("sim_goodput_rps", e.sim_goodput_rps, "req/sim-s");
    r.e2eMetric("sim_served_ratio", e.sim_served_ratio, "ratio");
    // Host speed is per-layer: no bound <= 25% holds for it on a shared
    // host (README.md, "Design choices"). It comes from the untraced
    // passes, so a traced run publishes the untraced figures.
    r.layerMetric("host.run_ms_p50", e.run_ms_p50, "ms");
    r.layerMetric("host.run_ms_p90", e.run_ms_p90, "ms");
    r.layerMetric("host.points_per_s", e.points_per_s, "points/s");
    r.layerMetric("host.requests_per_s", e.requests_per_s, "req/s");
    std::printf("host.run_ms samples: %zu (untraced)\n", e.run_samples);
}

Measured &
Measured::operator+=(const Measured &o)
{
    sample_ms.insert(sample_ms.end(), o.sample_ms.begin(), o.sample_ms.end());
    cpu_ms += o.cpu_ms;
    wall_ms += o.wall_ms;
    points += o.points;
    requests += o.requests;
    return *this;
}

std::array<Measured, 2>
runPasses(const Args &args, EndToEnd &e, LayerStats &layers,
          const std::function<Measured(bool traced)> &pass)
{
    const auto &inner = rsn::kernel::Registry::instance().active();
    std::array<Measured, 2> m;  // untraced, traced
    const Clock::time_point start = Clock::now();
    for (std::size_t passes = 0;
         passes == 0 || msBetween(start, Clock::now()) < args.seconds * 1e3;
         ++passes) {
        for (int traced = 0; traced <= int(args.trace); ++traced) {
            std::unique_ptr<rsn::kernel::ScopedIsaOverride> pin;
            if (traced) {
                pin = std::make_unique<rsn::kernel::ScopedIsaOverride>(
                    shim::timingTable(inner));
                trace::enable(true);
                ++layers.passes;
            }
            m[traced] += pass(traced);
            trace::enable(false);
        }
    }

    e.run_ms_p50 = quantile(m[0].sample_ms, 0.5);
    e.run_ms_p90 = quantile(m[0].sample_ms, 0.9);
    e.run_samples = m[0].sample_ms.size();
    e.points_per_s = m[0].pointsPerSecond();
    e.requests_per_s = m[0].requestsPerSecond();
    std::printf("wall clock (not a metric): %.1f ms over %.1f CPU ms, "
                "points_per_s %.6g at wall time\n",
                m[0].wall_ms, m[0].cpu_ms, m[0].points / (m[0].wall_ms / 1e3));
    if (args.trace)
        setOverhead(layers, e.run_ms_p50, quantile(m[1].sample_ms, 0.5),
                    e.points_per_s, m[1].pointsPerSecond());
    return m;
}

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "rsnbench: %s\n"
                 "usage: rsnbench --workload encoder_f32|encoder_bf16|"
                 "dse_sweep|serving_chaos --seed N --seconds S --trace 0|1\n"
                 "                [--trace-out PATH] "
                 "[--git-sha SHA] [--git-dirty 0|1]\n"
                 "       rsnbench --check-shim\n",
                 why);
    std::exit(2);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
provenance(const Args &a)
{
    const auto &reg = rsn::kernel::Registry::instance();
    std::string p = "{";
    p += "\"workload\":" + jsonString(a.workload);
    p += ",\"seed\":" + std::to_string(a.seed);
    p += ",\"trace\":" + std::to_string(int(a.trace));
    p += ",\"rsn_build_type\":" + jsonString(RSNBENCH_BUILD_TYPE);
    p += ",\"compiler\":" + jsonString(RSNBENCH_COMPILER);
    p += ",\"kernel_table\":" + jsonString(reg.active().name);
    p += ",\"kernel_selection\":" + jsonString(reg.selectionSource());
    p += ",\"cpu_probe\":" + jsonString(reg.probe().toString());
    p += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
    p += ",\"git_sha\":" + jsonString(a.git_sha);
    p += ",\"git_dirty\":" + jsonString(a.git_dirty);
    return p + "}";
}

Args
parse(int argc, char **argv, bool *check_shim, std::string *trace_out)
{
    Args a;
    bool have_workload = false, have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--check-shim") {
            *check_shim = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            have_seed = *end == '\0';
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
            have_seconds = *end == '\0' && a.seconds > 0;
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            a.trace = v[0] == '1';
        } else if (k == "--trace-out") {
            *trace_out = v;
        } else if (k == "--git-sha") {
            a.git_sha = v;
        } else if (k == "--git-dirty") {
            a.git_dirty = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (!*check_shim && !(have_workload && have_seed && have_seconds))
        usage("--workload, --seed and --seconds (> 0) are required");
    return a;
}

} // namespace

} // namespace rsnbench

int
main(int argc, char **argv)
{
    using namespace rsnbench;
    bool check_shim = false;
    std::string trace_out;
    const Args args = parse(argc, argv, &check_shim, &trace_out);

    if (check_shim) {
        const auto &reg = rsn::kernel::Registry::instance();
        int bad = 0;
        for (const rsn::kernel::KernelTable *t : reg.tables()) {
            if (!reg.selectable(t->isa))
                continue;
            const std::string diff = shim::checkForwarding(*t);
            std::printf("shim over %-8s %s\n", t->name,
                        diff.empty() ? "forwards bit-exactly"
                                     : ("DIFFERS at " + diff).c_str());
            bad += !diff.empty();
        }
        return bad ? 1 : 0;
    }

    Result r;
    if (args.workload == "encoder_f32")
        r = runEncoder(args, false);
    else if (args.workload == "encoder_bf16")
        r = runEncoder(args, true);
    else if (args.workload == "dse_sweep")
        r = runDseSweep(args);
    else if (args.workload == "serving_chaos")
        r = runServingChaos(args);
    else
        usage(("unknown workload " + args.workload).c_str());

    const std::string prov = provenance(args);
    std::printf("provenance: %s\n", prov.c_str());

    // The set the result line does not carry is printed for reading:
    // the host-speed metrics of an untraced run, the end-to-end metrics
    // of a traced one.
    const auto &metrics = args.trace ? r.layer : r.e2e;
    for (const Metric &m : args.trace ? r.e2e : r.layer)
        std::printf("  (%s) %s = %.6g %s\n",
                    args.trace ? "end-to-end" : "per-layer", m.name.c_str(),
                    m.value, m.unit.c_str());
    for (const Metric &m : metrics) {
        std::printf("  %s = %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (!std::isfinite(m.value))
            r.fail("metric " + m.name + " is not finite");
    }

    if (args.trace && !trace_out.empty()) {
        if (trace::writeChromeTrace(trace_out, trace::spans(), prov))
            std::printf("trace: %s (%llu kernel spans over budget)\n",
                        trace_out.c_str(),
                        static_cast<unsigned long long>(
                            trace::droppedKernelSpans()));
        else
            r.fail("cannot write trace file " + trace_out);
    }

    for (const std::string &e : r.errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());
    std::printf("checks: %llu ops attempted, %llu failed, %zu errors\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), r.errors.size());

    std::string json = "{\"correct\": ";
    json += r.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
        if (i)
            json += ", ";
        json += jsonString(metrics[i].name) + ": {\"value\": " + value +
                ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return r.correct() ? 0 : 1;
}
