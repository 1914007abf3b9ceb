#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/engine.hh"

namespace {

using rsn::Tick;
using rsn::sim::Engine;

/** Schedule the callable @p f at @p when through the raw callAt event;
 *  @p f must outlive the event. */
template <class F>
void
callAt(Engine &e, Tick when, F &f)
{
    e.callAt(when, [](void *p) { (*static_cast<F *>(p))(); }, &f);
}

TEST(Engine, StartsAtTickZeroAndIdle)
{
    Engine e;
    EXPECT_EQ(e.now(), 0u);
    EXPECT_TRUE(e.idle());
    EXPECT_TRUE(e.run());
}

TEST(Engine, EventsRunInTimeOrder)
{
    Engine e;
    std::vector<int> order;
    auto one = [&] { order.push_back(1); };
    auto two = [&] { order.push_back(2); };
    auto three = [&] { order.push_back(3); };
    callAt(e, 30, three);
    callAt(e, 10, one);
    callAt(e, 20, two);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameTickEventsRunInScheduleOrder)
{
    Engine e;
    std::vector<int> order;
    std::vector<std::function<void()>> fns(5);
    for (int i = 0; i < 5; ++i) {
        fns[i] = [&order, i] { order.push_back(i); };
        callAt(e, 7, fns[i]);
    }
    EXPECT_TRUE(e.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, EventsMayScheduleMoreEvents)
{
    Engine e;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 10)
            callAt(e, e.now() + 5, chain);
    };
    callAt(e, 0, chain);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(count, 10);
    EXPECT_EQ(e.now(), 45u);
}

TEST(Engine, RunStopsAtTickLimit)
{
    Engine e;
    bool late = false;
    auto fire = [&] { late = true; };
    callAt(e, 100, fire);
    EXPECT_FALSE(e.run(50));
    EXPECT_FALSE(late);
    EXPECT_EQ(e.now(), 50u);
    // Continuing past the limit executes the event.
    EXPECT_TRUE(e.run(200));
    EXPECT_TRUE(late);
}

TEST(Engine, ZeroDelayRunsAtCurrentTick)
{
    Engine e;
    Tick seen = 12345;
    auto inner = [&] { seen = e.now(); };
    auto outer = [&] { callAt(e, e.now(), inner); };
    callAt(e, 42, outer);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(seen, 42u);
}

TEST(Engine, EventCountIsTracked)
{
    Engine e;
    auto nop = [] {};
    for (int i = 0; i < 17; ++i)
        callAt(e, i, nop);
    e.run();
    EXPECT_EQ(e.eventsProcessed(), 17u);
}

TEST(Engine, TickLimitInPastDoesNotRewindTime)
{
    Engine e;
    bool fired = false;
    auto fire = [&] { fired = true; };
    callAt(e, 100, fire);
    EXPECT_FALSE(e.run(50));
    EXPECT_EQ(e.now(), 50u);
    // A limit below the current time must not move now() backwards.
    EXPECT_FALSE(e.run(30));
    EXPECT_EQ(e.now(), 50u);
    EXPECT_FALSE(fired);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(e.now(), 100u);
    EXPECT_TRUE(fired);
}

TEST(Engine, SameTickEventScheduledDuringDispatchRunsAfterQueued)
{
    Engine e;
    std::vector<int> order;
    auto three = [&] { order.push_back(3); };
    auto one = [&] {
        order.push_back(1);
        callAt(e, e.now(), three);  // behind event 2
    };
    auto two = [&] { order.push_back(2); };
    callAt(e, 5, one);
    callAt(e, 5, two);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now(), 5u);
}

TEST(Engine, TicksAcrossAllWheelLevelsRunInOrder)
{
    // One event per timing-wheel level 0-7 (level L holds ticks whose
    // highest byte differing from the base is byte L; see engine.hh),
    // plus the last tick below the kTickMax sentinel.
    Engine e;
    std::vector<Tick> fired;
    auto record = [&] { fired.push_back(e.now()); };
    const std::vector<Tick> ticks = {
        3,
        300,
        70'000,
        20'000'000,
        (Tick(1) << 33) + 7,
        (Tick(1) << 41) + 5,
        (Tick(1) << 49) + 3,
        (Tick(1) << 57) + 1,
        rsn::kTickMax - 2,
    };
    for (auto it = ticks.rbegin(); it != ticks.rend(); ++it)
        callAt(e, *it, record);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(fired, ticks);
    EXPECT_EQ(e.now(), rsn::kTickMax - 2);
}

TEST(Engine, PendingEventsTracksQueueDepth)
{
    Engine e;
    EXPECT_EQ(e.pendingEvents(), 0u);
    auto nop = [] {};
    for (int i = 0; i < 5; ++i)
        callAt(e, 10, nop);
    EXPECT_EQ(e.pendingEvents(), 5u);
    EXPECT_TRUE(e.run());
    EXPECT_EQ(e.pendingEvents(), 0u);
    EXPECT_TRUE(e.idle());
}

} // namespace
