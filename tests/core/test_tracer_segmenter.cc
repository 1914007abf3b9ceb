#include <gtest/gtest.h>

#include "core/machine.hh"
#include "core/tracer.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/segmenter.hh"

namespace {

using namespace rsn;

TEST(Tracer, RecordsKernelSlicesDuringARun)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    core::Tracer tracer(mach);
    auto c = lib::compileModel(mach, lib::bertLargeEncoder(1, 128, true,
                                                           1),
                               lib::ScheduleOptions::optimized());
    auto r = mach.run(c.program);
    ASSERT_TRUE(r.completed) << r.diagnosis;
    ASSERT_EQ(tracer.spans().size(), mach.fus().size());
    // One slice per executed kernel, well-formed, bounded by the run and
    // named by its uOP kind; every MME shows activity.
    for (std::size_t i = 0; i < mach.fus().size(); ++i) {
        const auto &f = *mach.fus()[i];
        EXPECT_EQ(tracer.spans()[i].size(), f.stats().uops) << f.name();
        for (const auto &s : tracer.spans()[i]) {
            EXPECT_LE(s.begin, s.end);
            EXPECT_LE(s.end, r.ticks);
            EXPECT_STRNE(s.kind, "halt");
        }
        if (f.id().type == FuType::Mme) {
            ASSERT_FALSE(tracer.spans()[i].empty()) << f.name();
            EXPECT_STREQ(tracer.spans()[i].front().kind, "mme");
        }
    }
}

TEST(Tracer, ChromeJsonIsStructurallySound)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    core::Tracer tracer(mach);
    auto c = lib::compileModel(mach, lib::bertLargeEncoder(1, 128, true,
                                                           1),
                               lib::ScheduleOptions::optimized());
    (void)mach.run(c.program);
    std::string json = tracer.toChromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"mme\",\"ph\":\"X\",\"pid\":1,"
                        "\"tid\":\"MME0\""),
              std::string::npos);
    // Balanced braces (rough structural check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(Tracer, LeavesGoldenTicksUntouchedAndSumsToBusyTicks)
{
    // Both golden models: a traced run takes exactly the pinned ticks of
    // an untraced one, and each FU's slices add up to its busy ticks.
    const std::pair<lib::Model, Tick> goldens[] = {
        {lib::bertLargeEncoder(6, 512, true), 5947426},
        {lib::tinyEncoder(2, 32, 64, 4, 128, true), 11084},
    };
    for (const auto &[model, golden] : goldens) {
        SCOPED_TRACE(model.name);
        core::RsnMachine mach(core::MachineConfig::vck190());
        auto c = lib::compileModel(mach, model,
                                   lib::ScheduleOptions::optimized());
        EXPECT_EQ(mach.run(c.program).ticks, golden);
        mach.reset();
        core::Tracer tracer(mach);
        auto r = mach.run(c.program);
        ASSERT_TRUE(r.completed) << r.diagnosis;
        EXPECT_EQ(r.ticks, golden);
        for (std::size_t i = 0; i < mach.fus().size(); ++i) {
            const auto &f = *mach.fus()[i];
            Tick sum = 0;
            for (const auto &s : tracer.spans()[i])
                sum += s.end - s.begin;
            EXPECT_EQ(sum, f.stats().busy_ticks) << f.name();
        }
    }
}

TEST(Segmenter, ClassifiesBertSegmentsLikeThePaper)
{
    lib::Segmenter seg(lib::PlatformBudget{});
    auto plan = seg.plan(lib::bertLargeEncoder(6, 512, true, 1));
    ASSERT_EQ(plan.segments.size(), 5u);
    // QKV / dense / FF are compute-bound single-MM segments.
    EXPECT_TRUE(plan.segments[0].compute_bound);
    EXPECT_TRUE(plan.segments[3].compute_bound);
    // Attention is memory-bound and picks the pipeline mapping.
    EXPECT_FALSE(plan.segments[1].compute_bound);
    EXPECT_EQ(plan.segments[1].mapping, lib::MappingType::Pipeline);
    EXPECT_GT(plan.total_est_ms, 5.0);
    EXPECT_LT(plan.total_est_ms, 40.0);
}

TEST(Segmenter, PipelineRequiresOnChipCapacity)
{
    // With a tiny on-chip budget, attention cannot pipeline.
    lib::Segmenter seg(lib::PlatformBudget{}, /*capacity=*/64 << 10);
    auto plan = seg.plan(lib::bertLargeEncoder(6, 512, true, 1));
    EXPECT_NE(plan.segments[1].mapping, lib::MappingType::Pipeline);
}

TEST(Segmenter, UnionRequirementsMatchRsnXnnTopology)
{
    // Stage 3 (Sec. 4.2): the machine's "union datapath" must provide
    // every edge class any segment of any evaluated model needs.
    lib::Segmenter seg(lib::PlatformBudget{});
    auto topo = core::buildRsnXnnTopology(core::MachineConfig::vck190());
    for (auto model : {lib::bertLargeEncoder(6, 512, true, 1),
                       lib::vitEncoder(6, false, 1), lib::ncf(6),
                       lib::mlp(6)}) {
        auto plan = seg.plan(model);
        auto missing = lib::Segmenter::missingEdges(plan, topo);
        EXPECT_TRUE(missing.empty())
            << model.name << " missing " << missing.size() << " edges";
    }
}

TEST(Segmenter, LayerNormNeedsLpddrToMemC)
{
    lib::Segmenter seg(lib::PlatformBudget{});
    auto plan = seg.plan(lib::bertLargeEncoder(1, 128, true, 1));
    EXPECT_TRUE(plan.required.lpddr_to_mem_c);
    EXPECT_TRUE(plan.required.ddr_to_mem_c);  // residuals
    EXPECT_TRUE(plan.required.memc_to_mesh);  // attention pipeline

    auto mlp_plan = seg.plan(lib::ncf(1));
    EXPECT_FALSE(mlp_plan.required.memc_to_mesh);
    EXPECT_FALSE(mlp_plan.required.ddr_to_mem_b);
}

TEST(Segmenter, PlanToStringListsEverySegment)
{
    lib::Segmenter seg(lib::PlatformBudget{});
    auto plan = seg.plan(lib::bertLargeEncoder(1, 128, true, 1));
    std::string s = plan.toString();
    EXPECT_NE(s.find("L0.qkv"), std::string::npos);
    EXPECT_NE(s.find("pipeline"), std::string::npos);
    EXPECT_NE(s.find("total estimate"), std::string::npos);
}

} // namespace
