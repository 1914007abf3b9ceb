/**
 * @file
 * FaultSpec / FaultInjector unit tier (ISSUE 6): spec parsing and
 * validation, and the core determinism contract — every decision is a
 * pure function of (seed, site name, sequence), so the same seed yields
 * a bit-identical schedule regardless of when or where it runs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/chunk.hh"
#include "sim/engine.hh"
#include "sim/fault.hh"

namespace {

using rsn::Status;
using rsn::StatusCode;
using rsn::Tick;
using rsn::kTickMax;
using rsn::sim::Engine;
using rsn::sim::FaultInjector;
using rsn::sim::FaultKind;
using rsn::sim::FaultSpec;

TEST(FaultSpec, DefaultIsDisabledAndValid)
{
    FaultSpec f;
    EXPECT_FALSE(f.enabled());
    EXPECT_FALSE(f.checksumsOn());
    EXPECT_TRUE(f.validate().ok());
}

TEST(FaultSpec, FlipRateForcesChecksums)
{
    FaultSpec f;
    f.flip_rate = 0.5;
    EXPECT_TRUE(f.enabled());
    EXPECT_TRUE(f.checksumsOn());
    EXPECT_FALSE(f.checksums);  // the explicit flag stays as set
}

TEST(FaultSpec, ValidateRejectsBadValues)
{
    auto expectInvalid = [](FaultSpec f) {
        Status s = f.validate();
        EXPECT_FALSE(s.ok());
        EXPECT_EQ(s.code, StatusCode::InvalidConfig);
    };
    FaultSpec f;
    f.link_drop_rate = 1.5;
    expectInvalid(f);
    f = {};
    f.dram_rate = -0.1;
    expectInvalid(f);
    f = {};
    f.link_stall_rate = 0.5;
    f.link_stall_max = 0;
    expectInvalid(f);
    f = {};
    f.max_retries = 31;
    expectInvalid(f);
    f = {};
    f.window_begin = 100;
    f.window_end = 50;
    expectInvalid(f);
}

TEST(FaultSpec, ParseRoundTripsKeyValues)
{
    Status st;
    FaultSpec f = FaultSpec::parse(
        "seed=7,link_drop=0.25,dram=0.5,retries=3,backoff=16,"
        "window=100:200,checksums=1",
        &st);
    ASSERT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(f.seed, 7u);
    EXPECT_DOUBLE_EQ(f.link_drop_rate, 0.25);
    EXPECT_DOUBLE_EQ(f.dram_rate, 0.5);
    EXPECT_EQ(f.max_retries, 3u);
    EXPECT_EQ(f.backoff_base, Tick(16));
    EXPECT_EQ(f.window_begin, Tick(100));
    EXPECT_EQ(f.window_end, Tick(200));
    EXPECT_TRUE(f.checksums);

    // toString -> parse is stable.
    FaultSpec again = FaultSpec::parse(f.toString(), &st);
    ASSERT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(again, f);
}

TEST(FaultSpec, ParseAcceptsChaosPreset)
{
    Status st;
    FaultSpec f = FaultSpec::parse("chaos", &st);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(f, FaultSpec::chaosPreset(0));
    EXPECT_TRUE(f.enabled());
}

TEST(FaultSpec, ParseRejectsGarbage)
{
    for (const char *bad : {"nope", "link_drop", "link_drop=x",
                            "window=5", "dram=1.5", "unknown_key=1"}) {
        Status st;
        FaultSpec f = FaultSpec::parse(bad, &st);
        EXPECT_FALSE(st.ok()) << bad;
        EXPECT_EQ(st.code, StatusCode::InvalidConfig) << bad;
        EXPECT_EQ(f, FaultSpec{}) << bad;  // default on error
    }
}

/** Record the full decision sequence an injector makes for a site. */
std::vector<FaultInjector::Outcome>
linkSchedule(const FaultSpec &spec, const std::string &site, int n)
{
    Engine eng;
    FaultInjector fi(spec, eng);
    auto s = fi.registerSite(site);
    std::vector<FaultInjector::Outcome> out;
    for (int i = 0; i < n; ++i)
        out.push_back(fi.onLinkAdmit(s, 10));
    return out;
}

TEST(FaultInjector, SameSeedSameSiteSameSchedule)
{
    FaultSpec spec;
    spec.seed = 42;
    spec.link_stall_rate = 0.3;
    spec.link_drop_rate = 0.2;
    spec.max_retries = 30;  // effectively never dead
    auto a = linkSchedule(spec, "stream x", 200);
    auto b = linkSchedule(spec, "stream x", 200);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].extra, b[i].extra) << i;
        EXPECT_EQ(a[i].retries, b[i].retries) << i;
        EXPECT_EQ(a[i].dead, b[i].dead) << i;
    }
}

TEST(FaultInjector, DifferentSeedOrSiteChangesTheSchedule)
{
    FaultSpec spec;
    spec.seed = 42;
    spec.link_stall_rate = 0.3;
    spec.link_drop_rate = 0.2;
    spec.max_retries = 30;
    auto base = linkSchedule(spec, "stream x", 200);

    FaultSpec other = spec;
    other.seed = 43;
    auto reseeded = linkSchedule(other, "stream x", 200);
    auto renamed = linkSchedule(spec, "stream y", 200);

    auto differs = [&](const std::vector<FaultInjector::Outcome> &o) {
        for (std::size_t i = 0; i < base.size(); ++i)
            if (base[i].extra != o[i].extra ||
                base[i].retries != o[i].retries)
                return true;
        return false;
    };
    EXPECT_TRUE(differs(reseeded));
    EXPECT_TRUE(differs(renamed));
}

TEST(FaultInjector, ScheduleIndependentOfRegistrationOrder)
{
    // Decisions key off the site-name hash, not the SiteId — registering
    // sites in a different order must not move a single fault.
    FaultSpec spec;
    spec.seed = 9;
    spec.link_stall_rate = 0.5;
    Engine e1, e2;
    FaultInjector a(spec, e1), b(spec, e2);
    auto a_x = a.registerSite("x");
    a.registerSite("y");
    b.registerSite("y");
    auto b_x = b.registerSite("x");
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.onLinkAdmit(a_x, 10).extra,
                  b.onLinkAdmit(b_x, 10).extra)
            << i;
}

TEST(FaultInjector, WindowMasksButDoesNotShiftDecisions)
{
    // The sequence number advances on every call whether or not the
    // window is open, so opening the window later must not change the
    // decisions made inside it.
    FaultSpec open;
    open.seed = 5;
    open.link_stall_rate = 0.5;
    FaultSpec gated = open;
    gated.window_begin = kTickMax;  // closed at tick 0 (engine never runs)

    Engine e1, e2;
    FaultInjector fi_open(open, e1), fi_gated(gated, e2);
    auto s1 = fi_open.registerSite("s");
    auto s2 = fi_gated.registerSite("s");
    for (int i = 0; i < 50; ++i) {
        auto o = fi_open.onLinkAdmit(s1, 10);
        auto g = fi_gated.onLinkAdmit(s2, 10);
        (void)o;
        EXPECT_EQ(g.extra, Tick(0)) << "closed window injected a fault";
    }
    EXPECT_EQ(fi_gated.totalInjected(), 0u);
    EXPECT_GT(fi_open.totalInjected(), 0u);
}

TEST(FaultInjector, CertainDropBecomesHardFaultAndStopsEngine)
{
    FaultSpec spec;
    spec.link_drop_rate = 1.0;  // every attempt fails
    spec.max_retries = 3;
    spec.backoff_base = 4;
    Engine eng;
    FaultInjector fi(spec, eng);
    auto s = fi.registerSite("stream dead");
    auto o = fi.onLinkAdmit(s, 10);
    EXPECT_TRUE(o.dead);
    EXPECT_EQ(o.retries, 3u);
    // Occupancy of the failed attempts: 3 x (10 ticks + backoff 4,8,16).
    EXPECT_EQ(o.extra, Tick(3 * 10 + 4 + 8 + 16));
    EXPECT_TRUE(fi.hardFaulted());
    ASSERT_NE(fi.firstHardFault(), nullptr);
    EXPECT_EQ(fi.firstHardFault()->kind, FaultKind::LinkDead);
    EXPECT_EQ(fi.firstHardFault()->site, "stream dead");
    EXPECT_TRUE(eng.stopRequested());
    EXPECT_EQ(fi.count(FaultKind::LinkDead), 1u);
}

TEST(FaultInjector, LogIsCappedButCountsAreExact)
{
    FaultSpec spec;
    spec.link_stall_rate = 1.0;
    spec.link_stall_max = 1;
    Engine eng;
    FaultInjector fi(spec, eng);
    auto s = fi.registerSite("s");
    const int n = 3 * int(FaultInjector::kMaxLogRecords);
    for (int i = 0; i < n; ++i)
        fi.onLinkAdmit(s, 10);
    EXPECT_EQ(fi.log().size(), FaultInjector::kMaxLogRecords);
    EXPECT_EQ(fi.count(FaultKind::LinkStall), std::uint64_t(n));
    EXPECT_EQ(fi.totalInjected(), std::uint64_t(n));
}

TEST(FaultInjector, ResetReplaysTheIdenticalSchedule)
{
    FaultSpec spec;
    spec.seed = 11;
    spec.link_stall_rate = 0.4;
    Engine eng;
    FaultInjector fi(spec, eng);
    auto s = fi.registerSite("s");
    std::vector<Tick> first;
    for (int i = 0; i < 64; ++i)
        first.push_back(fi.onLinkAdmit(s, 10).extra);
    fi.reset();
    EXPECT_EQ(fi.totalInjected(), 0u);
    EXPECT_TRUE(fi.log().empty());
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(fi.onLinkAdmit(s, 10).extra, first[i]) << i;
}

TEST(FaultInjector, PayloadChecksumDetectsASingleFlippedBit)
{
    // Every bit of each window: 2 and 30 bytes are all tail or words
    // plus tail, 32 is one word per lane, 100 is an odd bf16 width
    // (50 elements), 4096 runs every lane many times.
    for (std::uint64_t nbytes : {2u, 30u, 32u, 100u, 4096u}) {
        std::vector<unsigned char> v(nbytes);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = static_cast<unsigned char>(i * 37 + 11);
        const std::uint64_t base = rsn::sim::payloadChecksum(v.data(), nbytes);
        std::uint64_t missed = 0;
        for (std::uint64_t bit = 0; bit < nbytes * 8; ++bit) {
            v[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
            missed += rsn::sim::payloadChecksum(v.data(), nbytes) == base;
            v[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        }
        EXPECT_EQ(missed, 0u) << nbytes << "-byte window";
        EXPECT_EQ(rsn::sim::payloadChecksum(v.data(), nbytes), base);
    }
}

} // namespace
