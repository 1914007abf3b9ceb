/**
 * @file
 * Stream edge cases the coroutine-free rewrite must preserve: FIFO
 * serialization across many senders, minimum transfer durations,
 * busy-tick accounting under back-pressure, post/flush semantics
 * (FIFO-fair behind parked senders), and exact integer transfer timing
 * for huge chunks.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/chunk.hh"
#include "sim/engine.hh"
#include "sim/stream.hh"
#include "sim/task.hh"

namespace {

using rsn::Bytes;
using rsn::Tick;
using rsn::sim::Chunk;
using rsn::sim::Engine;
using rsn::sim::makeChunk;
using rsn::sim::Stream;
using rsn::sim::Task;

Task
sendOne(Stream &s, std::uint32_t tag)
{
    co_await s.send(makeChunk(16, 16, tag));
}

Task
recvChunks(Stream &s, int n, std::vector<Chunk> &out)
{
    for (int i = 0; i < n; ++i)
        out.push_back(co_await s.recv());
}

TEST(StreamEdge, ManySendersOneLinkSerializeInArrivalOrder)
{
    Engine e;
    Stream s(e, 64.0, 2, "many");
    std::vector<Task> senders;
    for (std::uint32_t i = 0; i < 8; ++i)
        senders.push_back(sendOne(s, i));
    std::vector<Chunk> got;
    Task rcv = recvChunks(s, 8, got);
    ASSERT_TRUE(e.run());
    // 16x16 floats = 1024 B = 16 ticks each; 8 transfers serialize.
    EXPECT_EQ(e.now(), 8u * 16u);
    EXPECT_EQ(s.busyTicks(), 8u * 16u);
    ASSERT_EQ(got.size(), 8u);
    for (std::uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(got[i].tag, i) << "send order not FIFO at " << i;
    for (auto &t : senders)
        EXPECT_TRUE(t.done());
}

TEST(StreamEdge, ZeroByteChunkStillTakesOneTick)
{
    Engine e;
    Stream s(e, 64.0, 2, "zero");
    EXPECT_EQ(s.transferTicks(0), 1u);
    auto snd = [&]() -> Task {
        co_await s.send(Chunk{0, 0, {}, 42});
    }();
    std::vector<Chunk> got;
    Task rcv = recvChunks(s, 1, got);
    ASSERT_TRUE(e.run());
    EXPECT_EQ(e.now(), 1u);
    EXPECT_EQ(s.busyTicks(), 1u);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].tag, 42u);
    EXPECT_EQ(s.bytesTransferred(), Bytes(0));
}

TEST(StreamEdge, SubWidthChunkRoundsUpToOneTick)
{
    Engine e;
    Stream s(e, 4096.0, 2, "tiny");
    EXPECT_EQ(s.transferTicks(1), 1u);
    EXPECT_EQ(s.transferTicks(4096), 1u);
    EXPECT_EQ(s.transferTicks(4097), 2u);
}

TEST(StreamEdge, BusyTicksCountTransfersNotBackPressureStalls)
{
    // Depth-1 FIFO; the consumer only starts popping at tick 1000. The
    // link is stalled (not busy) from tick 64 until the pop admits the
    // second transfer, so busyTicks must be exactly 2 x 64.
    Engine e;
    Stream s(e, 64.0, 1, "bp");
    auto producer = [](Stream &st) -> Task {
        co_await st.send(makeChunk(32, 32, 0));  // 4096 B = 64 ticks
        co_await st.send(makeChunk(32, 32, 1));
    };
    auto consumer = [](Engine &eng, Stream &st,
                       std::vector<Tick> &at) -> Task {
        co_await eng.delay(1000);
        (void)co_await st.recv();
        at.push_back(eng.now());
        (void)co_await st.recv();
        at.push_back(eng.now());
    };
    std::vector<Tick> pop_at;
    Task snd = producer(s);
    Task rcv = consumer(e, s, pop_at);
    ASSERT_TRUE(e.run());
    EXPECT_EQ(s.busyTicks(), 128u);
    ASSERT_EQ(pop_at.size(), 2u);
    EXPECT_EQ(pop_at[0], 1000u);
    EXPECT_EQ(pop_at[1], 1064u);  // admitted at 1000, 64-tick transfer
    EXPECT_EQ(e.now(), 1064u);
}

TEST(StreamEdge, PostQueuesBehindParkedSender)
{
    Engine e;
    Stream s(e, 4096.0, 2, "post-fair");
    s.post(makeChunk(1, 1, 0));
    s.post(makeChunk(1, 1, 1));
    // The FIFO is full: a coroutine sender parks, and a later post()
    // must queue behind it, not jump ahead once slots free up.
    Task blocked = sendOne(s, 2);
    EXPECT_TRUE(s.hasBlockedSender());
    s.post(makeChunk(1, 1, 3));
    std::vector<Chunk> got;
    Task rcv = recvChunks(s, 4, got);
    ASSERT_TRUE(e.run());
    ASSERT_EQ(got.size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(got[i].tag, i);
    EXPECT_TRUE(blocked.done());
}

TEST(StreamEdge, PostAndFlushDeliverEverythingInOrder)
{
    Engine e;
    Stream s(e, 4096.0, 2, "post");
    Tick flushed_at = 0;
    auto producer = [](Stream &st, Tick &done_at) -> Task {
        for (std::uint32_t i = 0; i < 5; ++i)
            st.post(makeChunk(32, 32, i));  // 1 tick each, depth 2
        co_await st.flush();
        done_at = st.busyTicks();
    };
    std::vector<Chunk> got;
    Task prod = producer(s, flushed_at);
    Task rcv = recvChunks(s, 5, got);
    ASSERT_TRUE(e.run());
    EXPECT_TRUE(prod.done());
    ASSERT_EQ(got.size(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i)
        EXPECT_EQ(got[i].tag, i);
    // flush() resumed only after all five transfers finished.
    EXPECT_EQ(flushed_at, 5u);
    EXPECT_EQ(s.chunksTransferred(), 5u);
}

TEST(StreamEdge, FlushOnDrainedStreamDoesNotSuspend)
{
    Engine e;
    Stream s(e, 64.0, 2, "noop-flush");
    bool done = false;
    auto t = [&]() -> Task {
        co_await s.flush();
        done = true;
    }();
    EXPECT_TRUE(done) << "flush of an idle stream must complete eagerly";
    ASSERT_TRUE(e.run());
}

TEST(StreamEdge, TransferTicksIsExactIntegerCeilDivision)
{
    Engine e;
    // Regression: the seed computed ticks in double arithmetic, which
    // mis-rounds once bytes exceed 2^53 (FP53 mantissa). The link
    // scheduler must use integer ceil-division.
    {
        Stream s(e, 1.0, 1, "w1");
        Bytes b = (Bytes(1) << 53) + 1;  // not representable in double
        EXPECT_EQ(s.transferTicks(b), b);
    }
    {
        Stream s(e, 64.0, 1, "w64");
        Bytes b = (Bytes(1) << 53) + 64;
        // Exact: (2^53 + 64) / 64 = 2^47 + 1. The double formula rounds
        // (2^53 + 127) up to 2^53 + 128 and lands one tick high.
        EXPECT_EQ(s.transferTicks(b), (Tick(1) << 47) + 1);
    }
    {
        Stream s(e, 127.0, 1, "w127");  // non-power-of-two width
        Bytes b = (Bytes(1) << 53) + 127;
        Bytes expect = ((Bytes(1) << 53) + 127 + 126) / 127;
        EXPECT_EQ(s.transferTicks(b), expect);
        EXPECT_EQ(s.transferTicks(127), 1u);
        EXPECT_EQ(s.transferTicks(128), 2u);
    }
}

} // namespace
