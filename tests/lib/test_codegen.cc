#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"

namespace {

using namespace rsn;
using namespace rsn::lib;

Model
linModel(std::uint32_t m, std::uint32_t k, std::uint32_t n,
         bool bias = true)
{
    Model mod;
    mod.name = "lin";
    mod.input_rows = m;
    mod.input_cols = k;
    LinearLayer l;
    l.name = "fc";
    l.m = m;
    l.k = k;
    l.n = n;
    l.bias = bias;
    l.in_src = "input";
    l.out_name = "out";
    mod.segments.emplace_back(l);
    return mod;
}

TEST(Codegen, DeclaresAllTensors)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto c = compileModel(mach, linModel(96, 64, 48),
                          ScheduleOptions::optimized());
    EXPECT_TRUE(c.hasTensor("input"));
    EXPECT_TRUE(c.hasTensor("W.fc"));
    EXPECT_TRUE(c.hasTensor("b.fc"));
    EXPECT_TRUE(c.hasTensor("out"));
    EXPECT_FALSE(c.hasTensor("ln.fc"));
    EXPECT_EQ(c.tensor("W.fc").rows, 64u);
    EXPECT_EQ(c.tensor("W.fc").cols, 48u);
    EXPECT_TRUE(c.tensor("W.fc").is_weight);
    EXPECT_FALSE(c.tensor("out").is_weight);
}

TEST(Codegen, ProgramValidatesAndEndsWithHalts)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto c = compileModel(mach, linModel(96, 64, 48),
                          ScheduleOptions::optimized());
    c.program.validate();
    // Every FU type present in the machine gets a halt.
    int halts = 0;
    for (const auto &p : c.program.packets())
        halts += p.last;
    EXPECT_EQ(halts, kNumFuTypes);
}

TEST(Codegen, MmFlopsMatchModel)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto c = compileModel(mach, linModel(96, 64, 48),
                          ScheduleOptions::optimized());
    EXPECT_EQ(c.mm_flops, 2ull * 96 * 64 * 48);
}

TEST(Codegen, NoOptimizeEmitsMorePackets)
{
    // Without double buffering every chunk needs separate load/send
    // uops, and stores cannot merge into strided mOPs behind loads.
    core::RsnMachine m1(core::MachineConfig::vck190());
    auto opt = compileModel(m1, bertLargeEncoder(2, 256, true, 1),
                            ScheduleOptions::optimized());
    core::RsnMachine m2(core::MachineConfig::vck190());
    auto noopt = compileModel(m2, bertLargeEncoder(2, 256, true, 1),
                              ScheduleOptions::noOptimize());
    EXPECT_GT(noopt.program.size(), opt.program.size());
    EXPECT_GT(noopt.program.totalBytes(), opt.program.totalBytes());
}

TEST(Codegen, StrideMergeCompressesRegularLoads)
{
    // A multi-k-step GEMM produces strided LHS loads that merge; the
    // expanded uOP bytes must exceed the instruction bytes for DDR.
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto opts = ScheduleOptions::optimized();
    opts.k_step = 16;
    auto c = compileModel(mach, linModel(96, 128, 48, false), opts);
    EXPECT_GT(c.program.expandedUopBytes(FuType::Ddr),
              c.program.instructionBytes(FuType::Ddr));
}

TEST(Codegen, ReuseCompressionOnScratchpadStreams)
{
    // The MemA steady state must compress into a handful of packets.
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto c = compileModel(mach, linModel(768, 1024, 1024),
                          ScheduleOptions::optimized());
    // 8 k-steps -> 9-ish MemA uops but only a few packets.
    EXPECT_LE(c.program.packetCount(FuType::MemA), 8u);
    EXPECT_GE(c.program.uopCountFor({FuType::MemA, 0}), 9u);
}

TEST(Codegen, InterleavedStoresSitBetweenLoads)
{
    // In the optimized schedule, DDR store uops appear between load
    // uops rather than all trailing (Sec. 4.4).
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto c = compileModel(mach, linModel(3072, 1024, 1024),
                          ScheduleOptions::optimized());
    bool store_before_last_load = false;
    bool seen_store = false;
    for (const auto &p : c.program.packets()) {
        if (p.opcode != FuType::Ddr)
            continue;
        for (const auto &m : p.mops) {
            const auto &d = std::get<isa::DdrUop>(m);
            if (d.store)
                seen_store = true;
            else if (seen_store)
                store_before_last_load = true;
        }
    }
    EXPECT_TRUE(store_before_last_load);
}

TEST(Codegen, NoOptKeepsStoresAfterTheirTileLoads)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    auto c = compileModel(mach, linModel(768, 256, 256),
                          ScheduleOptions::noOptimize());
    // Single tile: all loads precede all stores.
    bool seen_store = false;
    for (const auto &p : c.program.packets()) {
        if (p.opcode != FuType::Ddr)
            continue;
        for (const auto &m : p.mops) {
            const auto &d = std::get<isa::DdrUop>(m);
            if (d.store)
                seen_store = true;
            else
                EXPECT_FALSE(seen_store) << "load after store in no-opt "
                                            "single-tile program";
        }
    }
}

TEST(Codegen, AttentionPipelinedAvoidsScoresTensor)
{
    core::RsnMachine m1(core::MachineConfig::vck190());
    auto pipe = compileModel(m1, bertLargeEncoder(1, 128, true, 1),
                             ScheduleOptions::optimized());
    EXPECT_FALSE(pipe.hasTensor("scores.L0.attention"));

    core::RsnMachine m2(core::MachineConfig::vck190());
    auto seq = compileModel(m2, bertLargeEncoder(1, 128, true, 1),
                            ScheduleOptions::bwOptimized());
    EXPECT_TRUE(seq.hasTensor("scores.L0.attention"));
}

TEST(Codegen, CompileIsSingleUse)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    ProgramBuilder b(mach, ScheduleOptions::optimized());
    auto m = linModel(96, 64, 48);
    (void)b.compile(m);
    EXPECT_THROW((void)b.compile(m), std::logic_error);
}

TEST(Codegen, InstructionBytesScaleSubLinearlyWithWork)
{
    // Quadrupling the batch must not quadruple instruction bytes:
    // reuse compression absorbs the repetition (low-entropy control,
    // paper Sec. 1).
    core::RsnMachine m1(core::MachineConfig::vck190());
    auto small = compileModel(m1, bertLargeEncoder(1, 512, true, 1),
                              ScheduleOptions::optimized());
    core::RsnMachine m2(core::MachineConfig::vck190());
    auto big = compileModel(m2, bertLargeEncoder(4, 512, true, 1),
                            ScheduleOptions::optimized());
    double work_ratio = 4.0;
    double byte_ratio = double(big.program.totalBytes()) /
                        small.program.totalBytes();
    EXPECT_LT(byte_ratio, work_ratio);
}

TEST(Codegen, RejectsLayerNormOnPartialWidthTiles)
{
    core::RsnMachine mach(core::MachineConfig::vck190());
    Model mod;
    mod.input_rows = 96;
    mod.input_cols = 64;
    LinearLayer l;
    l.name = "fc";
    l.m = 96;
    l.k = 64;
    l.n = 2048;  // exceeds out_tile_n
    l.layernorm = true;
    l.in_src = "input";
    l.out_name = "out";
    mod.segments.emplace_back(l);
    auto opts = ScheduleOptions::optimized();
    opts.out_tile_n = 1024;
    EXPECT_THROW((void)compileModel(mach, mod, opts), std::logic_error);
}

TEST(Codegen, RejectsTensorsPastTheAddressField)
{
    // The 32768x32768 weight alone is 4 GiB of FP32, so it ends past the
    // 2^32 bytes a DDR/LPDDR addr field can reach (isa::kAddrBits).
    core::RsnMachine mach(core::MachineConfig::vck190());
    try {
        (void)compileModel(mach, linModel(96, 32768, 32768),
                           ScheduleOptions::optimized());
        FAIL() << "a tensor past the addr field compiled";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("'W.fc'"), std::string::npos)
            << e.what();
    }
}

/** Compile every shipped model under each Table 9 preset and both
 *  precision policies (the ProgramDigestsPinned set, in pin order) and
 *  hand each program to @p fn(model, preset, precision, compiled). */
template <class Fn>
void
forEachPinnedProgram(Fn &&fn)
{
    const std::pair<const char *, Model> models[] = {
        {"tiny", tinyEncoder(2, 32, 64, 4, 128, true)},
        {"bert", bertLargeEncoder(6, 512, true)},
        {"vit", vitEncoder(6, false)},  // unfused: three Q/K/V sources
        {"ncf", ncf(6)},
        {"mlp", mlp(6)},
    };
    const std::pair<const char *, ScheduleOptions> presets[] = {
        {"noOptimize", ScheduleOptions::noOptimize()},
        {"bwOptimized", ScheduleOptions::bwOptimized()},
        {"optimized", ScheduleOptions::optimized()},
    };
    for (const auto &[mname, model] : models) {
        for (const auto &[pname, opts] : presets) {
            for (const char *prec : {"f32", "bf16"}) {
                auto cfg = core::MachineConfig::vck190();
                if (std::string(prec) == "bf16") {
                    cfg.precision.linear_weights = Dtype::Bf16;
                    cfg.precision.linear_activations = Dtype::Bf16;
                    cfg.precision.attention_activations = Dtype::Bf16;
                }
                core::RsnMachine mach(cfg);
                fn(mname, pname, prec, compileModel(mach, model, opts));
            }
        }
    }
}

/** FNV-1a over the assembled program bytes and the tensor table (name,
 *  address, shape): any change to an emitted uOP field, its order, the
 *  packing or the address map moves the digest. */
std::uint64_t
programDigest(const CompiledModel &c)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto byte = [&](std::uint8_t b) {
        h ^= b;
        h *= 0x100000001b3ull;
    };
    auto word = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            byte(std::uint8_t(v >> (8 * i)));
    };
    for (std::uint8_t b : isa::assemble(c.program))
        byte(b);
    for (const auto &t : c.tensors) {
        for (char ch : t.name)
            byte(std::uint8_t(ch));
        byte(0);
        word(t.addr);
        word(t.rows);
        word(t.cols);
    }
    return h;
}

TEST(Codegen, ProgramDigestsPinned)
{
    // Byte-exact pins of every shipped model's program under each
    // Table 9 preset and both precision policies. A codegen refactor
    // must leave all of them in place; a deliberate schedule change
    // re-records them (the failure message prints the new table).
    struct Pin {
        const char *model, *preset, *precision;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"tiny", "noOptimize", "f32", 0x1a63f36e79d1554dull},
        {"tiny", "noOptimize", "bf16", 0x93fbad6d2e2a8b7full},
        {"tiny", "bwOptimized", "f32", 0x02be552e9344ca0eull},
        {"tiny", "bwOptimized", "bf16", 0x4b6979faddee9270ull},
        {"tiny", "optimized", "f32", 0xd23fb22deda79f94ull},
        {"tiny", "optimized", "bf16", 0x29d9dc1dca5a04f1ull},
        {"bert", "noOptimize", "f32", 0x703c91996c5359fbull},
        {"bert", "noOptimize", "bf16", 0x1b4896d8f2ff7afbull},
        {"bert", "bwOptimized", "f32", 0x3a751ef0124aab01ull},
        {"bert", "bwOptimized", "bf16", 0x864c7f80fb9707ffull},
        {"bert", "optimized", "f32", 0x6cdd95557713b23bull},
        {"bert", "optimized", "bf16", 0xf59db658c81f055dull},
        {"vit", "noOptimize", "f32", 0xf14d67ae1f8e27bbull},
        {"vit", "noOptimize", "bf16", 0x039a6eee58f7c9cfull},
        {"vit", "bwOptimized", "f32", 0xb1ec1e34f84d43aaull},
        {"vit", "bwOptimized", "bf16", 0x84ddb54600dda072ull},
        {"vit", "optimized", "f32", 0xfcac57de59952414ull},
        {"vit", "optimized", "bf16", 0xb3fde5ea8404e567ull},
        {"ncf", "noOptimize", "f32", 0x1b3ee7ca7f74ee5full},
        {"ncf", "noOptimize", "bf16", 0x2b944bd82de4c3cbull},
        {"ncf", "bwOptimized", "f32", 0x80fad282c343a006ull},
        {"ncf", "bwOptimized", "bf16", 0xd2f48c41eec49eadull},
        {"ncf", "optimized", "f32", 0xefc975519bca9d03ull},
        {"ncf", "optimized", "bf16", 0x2cda9d8db264f842ull},
        {"mlp", "noOptimize", "f32", 0x5929b9b8c81c8cafull},
        {"mlp", "noOptimize", "bf16", 0x9474d2d768664047ull},
        {"mlp", "bwOptimized", "f32", 0x2e89a8226c437525ull},
        {"mlp", "bwOptimized", "bf16", 0x71da943b0f79d550ull},
        {"mlp", "optimized", "f32", 0xb566a89b742afdfaull},
        {"mlp", "optimized", "bf16", 0xdff2d6bc8fb77c41ull},
    };
    std::string table;
    std::size_t i = 0;
    forEachPinnedProgram([&](const char *mname, const char *pname,
                             const char *prec, const CompiledModel &c) {
        const std::uint64_t d = programDigest(c);
        char line[128];
        std::snprintf(line, sizeof line,
                      "{\"%s\", \"%s\", \"%s\", 0x%016" PRIx64 "ull},\n",
                      mname, pname, prec, d);
        table += line;
        if (i < std::size(pins)) {
            EXPECT_STREQ(pins[i].model, mname);
            EXPECT_STREQ(pins[i].preset, pname);
            EXPECT_STREQ(pins[i].precision, prec);
            EXPECT_EQ(pins[i].digest, d) << mname << " / " << pname << " / "
                                         << prec;
        }
        ++i;
    });
    EXPECT_EQ(i, std::size(pins));
    if (::testing::Test::HasFailure())
        std::printf("current digests:\n%s", table.c_str());
}

TEST(Codegen, PinnedProgramsRoundTripThroughTheAssembler)
{
    // disassemble(assemble(p)) == p, packet for packet and mOP for mOP,
    // for every program the digests pin: no field of a shipped program
    // is too wide for, or lost by, its wire encoding.
    forEachPinnedProgram([](const char *mname, const char *pname,
                            const char *prec, const CompiledModel &c) {
        SCOPED_TRACE(std::string(mname) + " / " + pname + " / " + prec);
        const isa::RsnProgram back =
            isa::disassemble(isa::assemble(c.program));
        ASSERT_EQ(back.size(), c.program.size());
        for (std::size_t i = 0; i < back.size(); ++i)
            ASSERT_EQ(back.packets()[i], c.program.packets()[i])
                << "packet " << i;
    });
}

} // namespace
