/**
 * @file
 * Determinism stress test for the timing-wheel event engine.
 *
 * Replays identical seeded scripts — raw `callAt` callbacks, coroutine
 * resumes, delays spread over all eight wheel levels (up to 2^56 ticks
 * and beyond), same-tick bursts, and zero-delay chains — on both the
 * production Engine and a reference engine that reproduces the seed
 * implementation (single priority queue ordered by (tick, sequence)).
 * The observable execution order must match bit-for-bit.
 */

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <deque>
#include <queue>
#include <random>
#include <vector>

#include "sim/engine.hh"
#include "sim/task.hh"

namespace {

using rsn::Tick;
using rsn::sim::Engine;
using rsn::sim::Task;

/**
 * The seed engine, verbatim semantics: one priority queue of
 * (tick, sequence, callback) events, FIFO within a tick.
 */
class RefEngine
{
  public:
    Tick now() const { return now_; }

    void
    callAt(Tick when, void (*fn)(void *), void *arg)
    {
        queue_.push(Event{when, next_seq_++, fn, arg});
    }

    void
    resumeAt(Tick when, std::coroutine_handle<> h)
    {
        callAt(
            when,
            [](void *p) { std::coroutine_handle<>::from_address(p).resume(); },
            h.address());
    }

    bool
    run(Tick max_ticks = rsn::kTickMax)
    {
        while (!queue_.empty()) {
            if (queue_.top().when > max_ticks) {
                // Seed semantics *except* the rewind bug: the production
                // engine's contract (never move now() backwards) is what
                // the scripts below rely on.
                if (max_ticks > now_)
                    now_ = max_ticks;
                return false;
            }
            Event ev = queue_.top();
            queue_.pop();
            now_ = ev.when;
            ev.fn(ev.arg);
        }
        return true;
    }

  private:
    struct Event {
        Tick when;
        std::uint64_t seq;
        void (*fn)(void *);
        void *arg;
        bool operator>(const Event &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
};

/** One scripted callback event: logs its tag when it fires, then
 *  schedules its zero-delay follow-up, if any, at the same tick. */
template <typename E>
struct Record {
    E *e;
    std::vector<int> *log;
    int tag;
    Record *follow = nullptr;

    static void
    fire(void *p)
    {
        auto *r = static_cast<Record *>(p);
        r->log->push_back(r->tag);
        if (r->follow)
            r->e->callAt(r->e->now(), fire, r->follow);
    }
};

/** A delay whose target lands in wheel level 4, 5, 6 or 7 (its highest
 *  set byte is byte 4..7: 2^32 up to beyond 2^56). */
Tick
farDelay(std::mt19937 &rng)
{
    int bit = 32 + int(rng() % 31);
    return (Tick(1) << bit) + rng() % 1000;
}

/** Engine-generic delay awaitable (Engine::delay is Engine-specific). */
template <typename E>
struct DelayOn {
    E &e;
    Tick when;
    bool await_ready() const noexcept { return when <= e.now(); }
    void await_suspend(std::coroutine_handle<> h) { e.resumeAt(when, h); }
    void await_resume() const noexcept {}
};

/** Suspends unconditionally; the driver resumes via Task::handle(). */
struct Park {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept {}
};

/** Coroutine actor: logs, then hops through engine-timed delays. */
template <typename E>
Task
actor(E &e, std::vector<int> &log, unsigned seed, int id)
{
    std::mt19937 rng(seed);
    for (int i = 0; i < 6; ++i) {
        log.push_back(id + i);
        co_await DelayOn<E>{e, e.now() + rng() % 7};
    }
}

/** Parked coroutine, resumed explicitly through the engine. */
Task
parked(std::vector<int> &log, int tag)
{
    co_await Park{};
    log.push_back(tag);
}

template <typename E>
std::vector<int>
runScript(unsigned seed)
{
    E e;
    std::vector<int> log;
    std::mt19937 rng(seed);
    std::vector<Task> tasks;
    std::deque<Record<E>> records;  // stable addresses for callAt args
    const auto at = [&](Tick when, int tag) -> Record<E> & {
        Record<E> &r = records.emplace_back(Record<E>{&e, &log, tag});
        e.callAt(when, Record<E>::fire, &r);
        return r;
    };

    for (int op = 0; op < 400; ++op) {
        int tag = 100000 + op * 10;
        switch (rng() % 6) {
        case 0: {  // callback, near tick
            at(rng() % 60, tag);
            break;
        }
        case 1: {  // callback in the middle or upper wheel levels
            at(rng() % 2 ? farDelay(rng) : rng() % 300000, tag);
            break;
        }
        case 2: {  // same-tick burst
            Tick d = rng() % 40;
            for (int k = 0; k < 8; ++k)
                at(d, tag + k);
            break;
        }
        case 3: {  // coroutine actor with its own timed hops
            tasks.push_back(actor(e, log, seed ^ op, tag));
            break;
        }
        case 4: {  // parked coroutine resumed via raw handle
            tasks.push_back(parked(log, tag));
            Tick d = rng() % 4 == 0 ? farDelay(rng) : rng() % 70000;
            e.resumeAt(e.now() + d, tasks.back().handle());
            break;
        }
        case 5: {  // zero-delay chain scheduled from inside an event
            Record<E> &first = at(rng() % 25, tag);
            first.follow = &records.emplace_back(Record<E>{&e, &log, tag + 1});
            break;
        }
        }
    }

    // Staged runs with increasing limits — the last one stops inside a
    // level-5 segment — then drain.
    EXPECT_FALSE(e.run(50));
    EXPECT_EQ(e.now(), 50u);
    e.run(100000);
    e.run((Tick(1) << 44) + 12345);
    EXPECT_TRUE(e.run());
    return log;
}

TEST(EngineStress, MatchesReferenceEngineOrder)
{
    for (unsigned seed : {1u, 7u, 42u, 1234u, 987654u}) {
        std::vector<int> got = runScript<Engine>(seed);
        std::vector<int> want = runScript<RefEngine>(seed);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        ASSERT_EQ(got, want) << "seed " << seed;
    }
}

} // namespace
