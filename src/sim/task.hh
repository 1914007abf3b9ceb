/**
 * @file
 * The coroutine task type used by FU kernels and decoders.
 *
 * A Task is an *eagerly started* coroutine: calling the coroutine function
 * runs it until its first suspension point. It is awaitable, so a parent
 * coroutine can `co_await` a child kernel; awaiting a task that already
 * completed resumes immediately. A Task returns nothing: kernels hand
 * results over through channels, streams and the state they write. Two eager tasks awaited in sequence
 * execute concurrently in simulated time — this is how FU kernels express the
 * paper's "load and send execute in parallel" (Fig. 7b).
 *
 * Lifetime rules: the Task object owns the coroutine frame and destroys it in
 * its destructor. Never destroy a Task whose coroutine might still be resumed
 * by the engine; the simulator guarantees this by destroying FUs (and their
 * tasks) only after Engine::run has returned.
 *
 * Completion hand-off uses symmetric transfer (FinalAwaiter returns the
 * parent's handle), so awaiting a child never round-trips through the
 * engine's event queue. When engine-timed resumption *is* wanted, pass
 * handle() to Engine::resumeAt/resumeNow directly — a coroutine resume is
 * one of the engine's two event kinds and stores nothing but the handle.
 */

#ifndef RSN_SIM_TASK_HH
#define RSN_SIM_TASK_HH

#include <coroutine>
#include <exception>
#include <utility>

namespace rsn::sim {

namespace detail {

/** Final awaiter that transfers control back to an awaiting parent. */
template <typename Promise>
struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<Promise> h) noexcept
    {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
    }

    void await_resume() const noexcept {}
};

} // namespace detail

/** Eagerly-started coroutine returning nothing. See file comment. */
class [[nodiscard]] Task
{
  public:
    struct promise_type {
        std::coroutine_handle<> continuation;

        Task get_return_object()
        {
            return Task{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }
        std::suspend_never initial_suspend() noexcept { return {}; }
        detail::FinalAwaiter<promise_type> final_suspend() noexcept
        {
            return {};
        }
        void return_void() noexcept {}
        void unhandled_exception() { std::terminate(); }
    };

    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
    Task(Task &&o) noexcept : h_(std::exchange(o.h_, {})) {}
    Task &operator=(Task &&o) noexcept
    {
        if (this != &o) {
            reset();
            h_ = std::exchange(o.h_, {});
        }
        return *this;
    }
    ~Task() { reset(); }

    /** True when the coroutine ran to completion (or is empty). */
    bool done() const { return !h_ || h_.done(); }

    /**
     * The raw coroutine handle (null for an empty task). Lets callers
     * enqueue the suspended coroutine on the engine directly
     * (e.g. `eng.resumeNow(t.handle())`); ownership stays with the Task.
     */
    std::coroutine_handle<> handle() const noexcept { return h_; }

    /** Destroy the owned coroutine frame (must not be live in the engine). */
    void reset()
    {
        if (h_) {
            h_.destroy();
            h_ = {};
        }
    }

    /** Awaiting a Task suspends the parent until the task completes. */
    auto operator co_await() const noexcept
    {
        struct Awaiter {
            std::coroutine_handle<promise_type> h;
            bool await_ready() const noexcept { return !h || h.done(); }
            void await_suspend(std::coroutine_handle<> parent) noexcept
            {
                h.promise().continuation = parent;
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{h_};
    }

  private:
    std::coroutine_handle<promise_type> h_;
};

} // namespace rsn::sim

#endif // RSN_SIM_TASK_HH
