#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/runner.hh"
#include "sim/fault.hh"

namespace {

using namespace rsn;
using core::MachineConfig;
using core::RsnMachine;

lib::Model
smallLinear()
{
    lib::Model mod;
    mod.name = "s";
    mod.input_rows = 24;
    mod.input_cols = 16;
    lib::LinearLayer l;
    l.name = "fc";
    l.m = 24;
    l.k = 16;
    l.n = 12;
    l.bias = true;
    l.in_src = "input";
    l.out_name = "out";
    mod.segments.emplace_back(l);
    return mod;
}

TEST(Runner, InitTensorsFillsInputsAndWeightsOnly)
{
    RsnMachine mach(MachineConfig::vck190(true));
    auto c = lib::compileModel(mach, smallLinear(),
                               lib::ScheduleOptions::optimized());
    lib::initTensors(mach, c, 5);
    auto in = lib::readTensor(mach, c, "input");
    auto w = lib::readTensor(mach, c, "W.fc");
    auto out = lib::readTensor(mach, c, "out");
    // Inputs/weights randomized, activations zero until the run.
    EXPECT_NE(in.at(0, 0), 0.f);
    EXPECT_NE(w.at(0, 0), 0.f);
    for (float v : out.data)
        EXPECT_EQ(v, 0.f);
}

TEST(Runner, InitIsDeterministicPerSeed)
{
    RsnMachine m1(MachineConfig::vck190(true));
    auto c1 = lib::compileModel(m1, smallLinear(),
                                lib::ScheduleOptions::optimized());
    lib::initTensors(m1, c1, 9);
    RsnMachine m2(MachineConfig::vck190(true));
    auto c2 = lib::compileModel(m2, smallLinear(),
                                lib::ScheduleOptions::optimized());
    lib::initTensors(m2, c2, 9);
    EXPECT_EQ(lib::readTensor(m1, c1, "W.fc").data,
              lib::readTensor(m2, c2, "W.fc").data);
    RsnMachine m3(MachineConfig::vck190(true));
    auto c3 = lib::compileModel(m3, smallLinear(),
                                lib::ScheduleOptions::optimized());
    lib::initTensors(m3, c3, 10);
    EXPECT_NE(lib::readTensor(m1, c1, "W.fc").data,
              lib::readTensor(m3, c3, "W.fc").data);
}

TEST(Runner, InitIsNoOpOnTimingOnlyMachines)
{
    RsnMachine mach(MachineConfig::vck190(false));
    auto c = lib::compileModel(mach, smallLinear(),
                               lib::ScheduleOptions::optimized());
    lib::initTensors(mach, c, 5);  // must not throw or allocate data
    EXPECT_FALSE(mach.host().functional());
}

TEST(Runner, ReferenceForwardProducesEverySegmentOutput)
{
    RsnMachine mach(MachineConfig::vck190(true));
    auto model = lib::tinyEncoder(1, 16, 32, 4, 48, true);
    auto c = lib::compileModel(mach, model,
                               lib::ScheduleOptions::optimized());
    lib::initTensors(mach, c, 3);
    auto refs = lib::referenceForward(mach, model, c);
    for (const char *name :
         {"L0.qkv_out", "L0.attn_out", "L0.dense_out", "L0.ff1_out",
          "L0.encoder_out"})
        EXPECT_TRUE(refs.count(name)) << name;
    // Shapes follow the model.
    EXPECT_EQ(refs.at("L0.qkv_out").cols, 96u);
    EXPECT_EQ(refs.at("L0.encoder_out").rows, 16u);
}

TEST(Runner, ReadTensorRejectsUnknownName)
{
    RsnMachine mach(MachineConfig::vck190(true));
    auto c = lib::compileModel(mach, smallLinear(),
                               lib::ScheduleOptions::optimized());
    EXPECT_THROW((void)lib::readTensor(mach, c, "nope"),
                 std::runtime_error);
}

/** The configurations the program cache is checked under. */
struct CacheCase {
    const char *name;
    MachineConfig cfg;
    float tol;  ///< rtol = atol of the output check.
};

std::vector<CacheCase>
cacheCases()
{
    MachineConfig f32 = MachineConfig::vck190(true);
    MachineConfig bf16 = f32;
    bf16.precision.linear_weights = Dtype::Bf16;
    bf16.precision.linear_activations = Dtype::Bf16;
    bf16.precision.attention_activations = Dtype::Bf16;
    MachineConfig chaos = f32;
    chaos.fault = sim::FaultSpec::chaosPreset(/*seed=*/11);
    return {{"f32", f32, 2e-3f}, {"bf16", bf16, 5e-2f},
            {"chaos", chaos, 2e-3f}};
}

lib::Model
cacheModel()
{
    return lib::tinyEncoder(1, 16, 32, 4, 48, true);
}

constexpr std::uint32_t kSeed = 7;

/** A pristine machine for the next prepare: reset, or rebuilt when the
 *  previous run did not complete. */
void
renew(std::unique_ptr<RsnMachine> &mach, const MachineConfig &cfg)
{
    if (mach->resettable())
        mach->reset();
    else
        mach = std::make_unique<RsnMachine>(cfg);
}

bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(ProgramCache, HitPlacesTensorsLikeAColdCompile)
{
    const auto opts = lib::ScheduleOptions::optimized();
    for (const CacheCase &cc : cacheCases()) {
        SCOPED_TRACE(cc.name);
        lib::ProgramCache cache(cc.cfg, kSeed);
        auto mach = std::make_unique<RsnMachine>(cc.cfg);
        {
            // Miss, then a run that writes the activations.
            const auto &e = cache.prepare(*mach, cacheModel(), opts, kSeed);
            (void)lib::runAndCompare(*mach, e.compiled, e.refs, cc.tol,
                                     cc.tol, RsnMachine::kDefaultMaxTicks);
        }
        renew(mach, cc.cfg);
        const auto &hit = cache.prepare(*mach, cacheModel(), opts, kSeed);
        EXPECT_EQ(cache.compiled(), 1u);
        EXPECT_EQ(cache.reused(), 1u);

        RsnMachine cold(cc.cfg);
        const auto c = lib::compileModel(cold, cacheModel(), opts);
        lib::initTensors(cold, c, kSeed);
        EXPECT_EQ(mach->host().allocatedBytes(),
                  cold.host().allocatedBytes());
        ASSERT_EQ(hit.compiled.tensors.size(), c.tensors.size());
        for (std::size_t i = 0; i < c.tensors.size(); ++i) {
            const lib::TensorInfo &t = c.tensors[i];
            SCOPED_TRACE(t.name);
            EXPECT_EQ(hit.compiled.tensors[i].addr, t.addr);
            const auto got = mach->host().readRegion(t.addr);
            EXPECT_TRUE(sameBits(got, cold.host().readRegion(t.addr)));
            if (t.name != "input" && !t.is_weight) {
                for (float v : got)
                    ASSERT_EQ(v, 0.f) << "stale activation";
            }
        }
    }
}

TEST(ProgramCache, HitRunEqualsAColdCheckedRun)
{
    const auto opts = lib::ScheduleOptions::optimized();
    for (const CacheCase &cc : cacheCases()) {
        SCOPED_TRACE(cc.name);
        RsnMachine cold(cc.cfg);
        const auto c = lib::compileModel(cold, cacheModel(), opts);
        const lib::CheckedRun want = lib::runModelChecked(
            cold, cacheModel(), c, kSeed, cc.tol, cc.tol);
        EXPECT_EQ(want.report.faults_injected > 0,
                  cc.cfg.fault.enabled());

        lib::ProgramCache cache(cc.cfg, kSeed);
        auto mach = std::make_unique<RsnMachine>(cc.cfg);
        for (int round = 0; round < 2; ++round) {  // miss, then hit
            SCOPED_TRACE(round);
            if (round)
                renew(mach, cc.cfg);
            const auto &e = cache.prepare(*mach, cacheModel(), opts, kSeed);
            const lib::CheckedRun got =
                lib::runAndCompare(*mach, e.compiled, e.refs, cc.tol,
                                   cc.tol, RsnMachine::kDefaultMaxTicks);
            EXPECT_EQ(got.report.status.code, want.report.status.code);
            EXPECT_EQ(got.report.result.ticks, want.report.result.ticks);
            EXPECT_EQ(got.report.faults_injected,
                      want.report.faults_injected);
            EXPECT_EQ(got.outputs_ok, want.outputs_ok);
            EXPECT_EQ(got.mismatched, want.mismatched);
        }
        EXPECT_EQ(cache.reused(), 1u);
    }
    // The f32 run completes and verifies: the comparison above is not
    // between two failures.
    RsnMachine mach(MachineConfig::vck190(true));
    const auto c = lib::compileModel(mach, cacheModel(), opts);
    EXPECT_TRUE(lib::runModelChecked(mach, cacheModel(), c, kSeed).ok());
}

TEST(ProgramCache, LookupUnderAnotherConfigOrSeedAsserts)
{
    const auto opts = lib::ScheduleOptions::optimized();
    const auto cases = cacheCases();
    lib::ProgramCache cache(cases[0].cfg, kSeed);
    RsnMachine bf16(cases[1].cfg);
    EXPECT_THROW(cache.prepare(bf16, cacheModel(), opts, kSeed),
                 std::logic_error);
    RsnMachine mach(cases[0].cfg);
    EXPECT_THROW(cache.prepare(mach, cacheModel(), opts, kSeed + 1),
                 std::logic_error);
    // A machine that already holds a placed program is not pristine.
    (void)cache.prepare(mach, cacheModel(), opts, kSeed);
    EXPECT_THROW(cache.prepare(mach, cacheModel(), opts, kSeed),
                 std::logic_error);
    // Another schedule or another model is a miss, not a hit.
    mach.reset();
    (void)cache.prepare(mach, cacheModel(), lib::ScheduleOptions::noOptimize(),
                        kSeed);
    mach.reset();
    (void)cache.prepare(mach, smallLinear(), opts, kSeed);
    EXPECT_EQ(cache.compiled(), 3u);
    EXPECT_EQ(cache.reused(), 0u);
    // Only the fault seed may differ.
    MachineConfig reseeded = cases[2].cfg;
    reseeded.fault.seed = 12;
    lib::ProgramCache chaos(cases[2].cfg, kSeed);
    RsnMachine other(reseeded);
    (void)chaos.prepare(other, cacheModel(), opts, kSeed);
    EXPECT_EQ(chaos.compiled(), 1u);
}

} // namespace
