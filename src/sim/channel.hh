/**
 * @file
 * Bounded latency-insensitive channel connecting coroutines.
 *
 * A Channel<T> is a FIFO of fixed capacity. Senders block (suspend) while the
 * channel is full; receivers block while it is empty. This is the data-plane
 * primitive of the RSN abstraction: "communication is latency-insensitive,
 * meaning that the correctness of execution does not depend on timing, and
 * the FUs are stallable" (paper Sec. 3.1).
 *
 * Wakeups use a reservation discipline: when a send makes an item available,
 * exactly one waiting receiver is woken and that item is reserved for it, so
 * a later receiver arriving before the wakeup fires cannot steal it (and
 * symmetrically for freed slots and waiting senders). This keeps the channel
 * strictly FIFO and deterministic. Wakeups enqueue the waiter's coroutine
 * handle directly on the engine's now-queue (Engine::resumeNow) — no
 * lambda trampoline, no allocation.
 */

#ifndef RSN_SIM_CHANNEL_HH
#define RSN_SIM_CHANNEL_HH

#include <coroutine>
#include <string>
#include <utility>

#include "common/log.hh"
#include "sim/engine.hh"
#include "sim/ring.hh"

namespace rsn::sim {

template <typename T>
class Channel
{
  public:
    Channel(Engine &eng, std::size_t capacity, std::string name = "chan")
        : eng_(eng), cap_(capacity), name_(std::move(name))
    {
        rsn_assert(capacity > 0, "channel capacity must be positive");
        eng_.registerWaitable(this);
    }

    ~Channel() { eng_.unregisterWaitable(this); }

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** @{ Silent-deadlock detection (Engine::drainedClean): a drained
     *  engine must leave no coroutine parked on this channel. */
    bool
    waitQuiet() const
    {
        return send_waiters_.empty() && recv_waiters_.empty();
    }
    [[gnu::cold]] std::string
    describeBlocked() const
    {
        std::string s = "channel " + name_ + ":";
        if (!send_waiters_.empty())
            s += " " + std::to_string(send_waiters_.size()) +
                 " parked sender(s)";
        if (!recv_waiters_.empty())
            s += " " + std::to_string(recv_waiters_.size()) +
                 " parked receiver(s)";
        return s;
    }
    /** @} */

    const std::string &name() const { return name_; }
    std::size_t capacity() const { return cap_; }
    std::size_t size() const { return q_.size(); }
    bool empty() const { return q_.empty(); }

    /** True if a coroutine is currently blocked sending / receiving. */
    bool hasBlockedSender() const { return !send_waiters_.empty(); }
    bool hasBlockedReceiver() const { return !recv_waiters_.empty(); }

    /** Awaitable: suspend until the item can be enqueued, then enqueue. */
    auto send(T v) { return SendAwaiter{*this, std::move(v)}; }

    /** Awaitable: suspend until an item is available, then dequeue it. */
    auto recv() { return RecvAwaiter{*this}; }

  private:
    friend struct SendAwaiterFriend;

    /** Items present and not reserved for an already-woken receiver. */
    std::size_t available() const { return q_.size() - reserved_pops_; }
    /** Free slots not reserved for an already-woken sender. */
    std::size_t
    freeSlots() const
    {
        return cap_ - q_.size() - reserved_pushes_;
    }

    void
    pushNow(T v)
    {
        q_.push_back(std::move(v));
        rsn_assert(q_.size() <= cap_, "channel overflow");
        wakeOneReceiver();
    }

    T
    popNow()
    {
        rsn_assert(!q_.empty(), "channel underflow");
        T v = std::move(q_.front());
        q_.pop_front();
        wakeOneSender();
        return v;
    }

    void
    wakeOneReceiver()
    {
        if (recv_waiters_.empty())
            return;
        auto h = recv_waiters_.pop_front();
        ++reserved_pops_;
        eng_.resumeNow(h);
    }

    void
    wakeOneSender()
    {
        if (send_waiters_.empty())
            return;
        auto h = send_waiters_.pop_front();
        ++reserved_pushes_;
        eng_.resumeNow(h);
    }

    struct SendAwaiter {
        Channel &ch;
        T v;
        bool was_suspended = false;

        bool await_ready() const
        {
            return ch.send_waiters_.empty() && ch.freeSlots() > 0;
        }
        void await_suspend(std::coroutine_handle<> h)
        {
            was_suspended = true;
            ch.send_waiters_.push_back(h);
        }
        void await_resume()
        {
            if (was_suspended) {
                rsn_assert(ch.reserved_pushes_ > 0, "push wakeup imbalance");
                --ch.reserved_pushes_;
            }
            ch.pushNow(std::move(v));
        }
    };

    struct RecvAwaiter {
        Channel &ch;
        bool was_suspended = false;

        bool await_ready() const
        {
            return ch.recv_waiters_.empty() && ch.available() > 0;
        }
        void await_suspend(std::coroutine_handle<> h)
        {
            was_suspended = true;
            ch.recv_waiters_.push_back(h);
        }
        T await_resume()
        {
            if (was_suspended) {
                rsn_assert(ch.reserved_pops_ > 0, "pop wakeup imbalance");
                --ch.reserved_pops_;
            }
            return ch.popNow();
        }
    };

    Engine &eng_;
    std::size_t cap_;
    std::string name_;
    Ring<T> q_;
    Ring<std::coroutine_handle<>> send_waiters_;
    Ring<std::coroutine_handle<>> recv_waiters_;
    std::size_t reserved_pops_ = 0;
    std::size_t reserved_pushes_ = 0;
};

} // namespace rsn::sim

#endif // RSN_SIM_CHANNEL_HH
