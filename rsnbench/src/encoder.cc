// encoder_f32 / encoder_bf16: functional paper-sized encoders on one
// lane. Payload math dominates here (the f32 GEMM is most of a ViT op,
// initTensors a third of an op); codegen and the engine do little.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "fu/kernel_registry.hh"
#include "layers.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"
#include "lib/sweep.hh"
#include "trace.hh"
#include "workloads.hh"

namespace rsnbench {

namespace {

using rsn::core::MachineConfig;
using rsn::core::RsnMachine;
using rsn::lib::SweepLane;

/** f32 gate: the rsn-sim --functional tolerance. */
constexpr float kF32Tol = 2e-3f;
/** bf16 gate: tt-metal comp_pcc convention; max rel err is reported. */
constexpr double kBf16MinPcc = 0.99;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

struct EncModel {
    rsn::lib::Model model;
    std::map<std::string, rsn::ref::Matrix> refs;
    /** Fingerprint of the first run; every later run must match it. */
    bool seen = false;
    rsn::Tick ticks = 0;
    std::uint64_t out_hash = 0;
};

struct OpOut {
    double cpu_ms = 0, wall_ms = 0;
    bool ok = false;
    std::string why;
    rsn::Tick ticks = 0;
    double sim_s = 0;
    Accuracy worst{0, 1};
};

struct Setup {
    std::unique_ptr<SweepLane> lane;
    std::vector<EncModel> models;
    double ref_ms = 0;
};

/**
 * One op: SweepLane::machine, compileModel, initTensors, run — timed as
 * a whole — then the untimed output check against the FP32 reference.
 * With @p layers set (traced pass) it also reads the machine counters.
 */
OpOut
runOp(SweepLane &lane, const MachineConfig &cfg, EncModel &m,
      std::uint32_t seed, bool bf16, std::uint64_t op_id, LayerStats *layers)
{
    OpOut o;
    RsnMachine *mach;
    rsn::lib::CompiledModel compiled;
    rsn::core::RunResult res;
    const auto t0 = Clock::now();
    const double cpu0 = threadCpuMs();
    {
        trace::Span op_span("op", op_id);
        {
            trace::Span s("core.machine.reset", op_id);
            const std::size_t built = lane.machinesBuilt();
            mach = &lane.machine(cfg);
            if (lane.machinesBuilt() != built)
                s.rename("core.machine.build");
        }
        {
            trace::Span s("lib.codegen", op_id);
            compiled = rsn::lib::compileModel(
                *mach, m.model, rsn::lib::ScheduleOptions::optimized());
        }
        {
            trace::Span s("lib.runner", op_id);
            rsn::lib::initTensors(*mach, compiled, seed);
        }
        trace::Span s("core.machine.run", op_id);
        res = mach->run(compiled.program);
    }
    o.cpu_ms = threadCpuMs() - cpu0;
    o.wall_ms = msBetween(t0, Clock::now());
    o.ticks = res.ticks;
    o.sim_s = res.ms / 1e3;

    if (layers) {
        layers->sim.add(*mach, res.ticks);
        layers->packets += compiled.program.size();
        layers->program_bytes += compiled.program.totalBytes();
    }
    if (!res.completed) {
        o.why = "run did not complete: " + res.diagnosis;
        return o;
    }

    std::uint64_t hash = fnv1a(&res.ticks, sizeof res.ticks);
    std::size_t compared = 0;
    for (const auto &[name, expect] : m.refs) {
        if (name == "input" || !compiled.hasTensor(name))
            continue;
        ++compared;
        const rsn::ref::Matrix got =
            rsn::lib::readTensor(*mach, compiled, name);
        hash = fnv1a(got.data.data(), got.data.size() * sizeof(float), hash);
        const Accuracy a = accuracy(got, expect);
        o.worst.max_rel_err = std::max(o.worst.max_rel_err, a.max_rel_err);
        o.worst.pcc = std::min(o.worst.pcc, a.pcc);
        const bool pass =
            bf16 ? a.pcc >= kBf16MinPcc
                 : rsn::ref::allclose(got, expect, kF32Tol, kF32Tol);
        if (!pass && o.why.empty())
            o.why = "tensor " + name + " off the FP32 reference";
    }
    if (compared == 0)
        o.why = "no produced tensor matches a reference tensor";
    if (!m.seen) {
        m.seen = true;
        m.ticks = res.ticks;
        m.out_hash = hash;
    } else if (res.ticks != m.ticks || hash != m.out_hash) {
        if (o.why.empty())
            o.why = "ticks or outputs differ from the first run of this "
                    "model (tracing or a repeat changed the result)";
    }
    o.ok = o.why.empty();
    return o;
}

/**
 * One set-up: registry probe, model build, lane machine build, the FP32
 * reference of each model, one warm-up op.
 */
Setup
setUp(const Args &args, const MachineConfig &cfg, bool bf16, Result &r)
{
    rsn::kernel::probeCpu();
    rsn::kernel::Registry::instance();

    Setup s;
    s.models.push_back({rsn::lib::bertLargeEncoder(1, 128, true, 1), {}});
    s.models.push_back({rsn::lib::vitEncoder(1, true, 1), {}});
    s.lane = std::make_unique<SweepLane>(0);
    for (EncModel &m : s.models) {
        RsnMachine &mach = s.lane->machine(cfg);
        const auto compiled = rsn::lib::compileModel(
            mach, m.model, rsn::lib::ScheduleOptions::optimized());
        rsn::lib::initTensors(mach, compiled,
                              static_cast<std::uint32_t>(args.seed));
        const auto t0 = Clock::now();
        trace::enable(args.trace);
        {
            trace::Span span("ref", 0);
            m.refs = rsn::lib::referenceForward(mach, m.model, compiled);
        }
        trace::enable(false);
        s.ref_ms += msBetween(t0, Clock::now());
    }
    const OpOut warm = runOp(*s.lane, cfg, s.models[0],
                             static_cast<std::uint32_t>(args.seed), bf16, 0,
                             nullptr);
    if (!warm.ok)
        r.fail("warm-up op: " + warm.why);
    return s;
}

} // namespace

Result
runEncoder(const Args &args, bool bf16)
{
    Result r;
    MachineConfig cfg = MachineConfig::vck190(/*functional=*/true);
    if (bf16)
        cfg.precision = {rsn::Dtype::Bf16, rsn::Dtype::Bf16,
                         rsn::Dtype::Bf16};
    const auto seed = static_cast<std::uint32_t>(args.seed);

    // Set-ups. In a traced run only the reference is traced here (it is
    // ref.forward_ms); the rest of the set-up runs untraced.
    std::vector<double> setup_s, ref_ms;
    Setup s;
    double cpu0 = 0;  // the first set-up counts from process start
    for (int i = 0; i < kSetups; ++i) {
        s = Setup{};  // the previous set-up's lane is torn down first
        s = setUp(args, cfg, bf16, r);
        const double cpu = processCpuMs();
        setup_s.push_back((cpu - cpu0) / 1e3);
        ref_ms.push_back(s.ref_ms);
        cpu0 = cpu;
    }

    std::uint64_t op_id = 1;
    Accuracy worst{0, 1};
    LayerStats layers;
    EndToEnd e;
    runPasses(args, e, layers, [&](bool traced) {
        Measured p;
        double pass_sim_s = 0;
        std::vector<double> run_ticks;
        for (EncModel &m : s.models) {
            const OpOut o = runOp(*s.lane, cfg, m, seed, bf16, op_id++,
                                  traced ? &layers : nullptr);
            ++r.attempted;
            if (!o.ok)
                r.opFailed("op " + std::to_string(op_id - 1) + ": " + o.why);
            worst.max_rel_err =
                std::max(worst.max_rel_err, o.worst.max_rel_err);
            worst.pcc = std::min(worst.pcc, o.worst.pcc);
            p.sample_ms.push_back(o.cpu_ms);
            p.cpu_ms += o.cpu_ms;  // the untimed output check left out
            p.wall_ms += o.wall_ms;
            run_ticks.push_back(double(o.ticks));
            pass_sim_s += o.sim_s;
        }
        p.points = p.requests = double(s.models.size());  // batch 1
        if (!traced) {
            // One pass of the op list: [BERT-Large, ViT-Base], one
            // request each, closed loop (no queueing). runOp checks that
            // every pass gives the same ticks.
            e.sim_ticks = 0;
            for (double t : run_ticks)
                e.sim_ticks += t;
            e.sim_p50_ticks = quantile(run_ticks, 0.5);
            e.sim_p99_ticks = quantile(run_ticks, 0.99);
            e.sim_goodput_rps = double(s.models.size()) / pass_sim_s;
        }
        return p;
    });

    e.setup_s = median(setup_s);
    e.sim_served_ratio =
        double(r.attempted - r.failed) / double(std::max<std::uint64_t>(
                                             r.attempted, 1));
    emitEndToEnd(r, e);

    std::printf("accuracy: output_max_rel_err %.6g, output_min_pcc %.8f "
                "over %llu ops (%s gate)\n",
                worst.max_rel_err, worst.pcc,
                static_cast<unsigned long long>(r.attempted),
                bf16 ? "pcc >= 0.99" : "allclose 2e-3");

    if (args.trace) {
        layers.spans = trace::spans();
        layers.kernels = trace::kernelCensus();
        layers.ref_forward_ms = median(ref_ms);
        layers.max_rel_err = worst.max_rel_err;
        layers.min_pcc = worst.pcc;
        emitLayerMetrics(r, layers);
    }
    return r;
}

} // namespace rsnbench
