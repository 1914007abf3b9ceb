#include "trace.hh"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common.hh"

namespace rsnbench::trace {

namespace {

/** Individual kernel spans kept per process; totals are always exact. */
constexpr std::int64_t kKernelSpanBudget = 200000;

const char *const kClassNames[kNumKernelClasses] = {
    "gemm_f32",  "gemm_bf16", "convert_to_f32", "convert_from_f32",
    "softmax",   "gelu",      "layernorm",      "transpose",
    "transpose_u16",
};
const char *const kSpanNames[kNumKernelClasses] = {
    "fu.kernel.gemm_f32",  "fu.kernel.gemm_bf16",
    "fu.kernel.convert_to_f32", "fu.kernel.convert_from_f32",
    "fu.kernel.softmax",   "fu.kernel.gelu",
    "fu.kernel.layernorm", "fu.kernel.transpose",
    "fu.kernel.transpose_u16",
};

struct Open {
    std::uint64_t id;
    std::uint64_t op;
    std::int64_t kernel_ns;
};

struct ThreadBuf {
    std::uint32_t thread = 0;
    std::vector<SpanRec> spans;
    std::vector<Open> stack;
    KernelCensus census{};
    std::uint64_t dropped = 0;
};

std::mutex g_mu;  // guards g_bufs
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;
thread_local ThreadBuf *tl_buf = nullptr;

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::int64_t> g_kernel_budget{kKernelSpanBudget};
std::atomic<std::uint64_t> g_root_id{0};
std::atomic<std::uint64_t> g_root_op{0};

ThreadBuf &
buf()
{
    if (!tl_buf) {
        std::lock_guard<std::mutex> lock(g_mu);
        g_bufs.push_back(std::make_unique<ThreadBuf>());
        tl_buf = g_bufs.back().get();
        tl_buf->thread = static_cast<std::uint32_t>(g_bufs.size() - 1);
    }
    return *tl_buf;
}

bool
on()
{
    return g_on.load(std::memory_order_relaxed);
}

void
parentOf(const ThreadBuf &b, std::uint64_t *parent, std::uint64_t *op)
{
    if (b.stack.empty()) {
        *parent = g_root_id.load(std::memory_order_relaxed);
        *op = g_root_op.load(std::memory_order_relaxed);
    } else {
        *parent = b.stack.back().id;
        *op = b.stack.back().op;
    }
}

} // namespace

const char *
kernelClassName(KernelClass c)
{
    return kClassNames[static_cast<std::size_t>(c)];
}

void
enable(bool on)
{
    g_on.store(on, std::memory_order_relaxed);
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - processStart())
        .count();
}

Span::Span(const char *name, std::uint64_t op) : name_(name)
{
    if (!on())
        return;
    ThreadBuf &b = buf();
    std::uint64_t parent_op = 0;
    parentOf(b, &parent_, &parent_op);
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
    op_ = op ? op : parent_op;
    b.stack.push_back({id_, op_, 0});
    start_ = nowNs();
}

Span::~Span()
{
    if (!id_)
        return;
    const std::int64_t end = nowNs();
    ThreadBuf &b = buf();
    const Open o = b.stack.back();
    b.stack.pop_back();
    b.spans.push_back(
        {name_, id_, parent_, op_, b.thread, false, start_, end, o.kernel_ns});
}

void
setRoot(std::uint64_t span_id, std::uint64_t op)
{
    g_root_id.store(span_id, std::memory_order_relaxed);
    g_root_op.store(op, std::memory_order_relaxed);
}

void
kernelCall(KernelClass c, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t work)
{
    ThreadBuf &b = buf();
    const std::int64_t dur = end_ns - start_ns;
    KernelTotals &t = b.census[static_cast<std::size_t>(c)];
    t.ns += static_cast<std::uint64_t>(dur);
    ++t.calls;
    t.work += work;
    if (!b.stack.empty())
        b.stack.back().kernel_ns += dur;

    if (g_kernel_budget.load(std::memory_order_relaxed) <= 0 ||
        g_kernel_budget.fetch_sub(1, std::memory_order_relaxed) <= 0) {
        ++b.dropped;
        return;
    }
    std::uint64_t parent = 0, op = 0;
    parentOf(b, &parent, &op);
    b.spans.push_back({kSpanNames[static_cast<std::size_t>(c)],
                       g_next_id.fetch_add(1, std::memory_order_relaxed),
                       parent, op, b.thread, true, start_ns, end_ns, 0});
}

std::vector<SpanRec>
spans()
{
    std::lock_guard<std::mutex> lock(g_mu);
    std::vector<SpanRec> all;
    for (const auto &b : g_bufs)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    return all;
}

KernelCensus
kernelCensus()
{
    std::lock_guard<std::mutex> lock(g_mu);
    KernelCensus sum{};
    for (const auto &b : g_bufs)
        for (std::size_t c = 0; c < kNumKernelClasses; ++c) {
            sum[c].ns += b->census[c].ns;
            sum[c].calls += b->census[c].calls;
            sum[c].work += b->census[c].work;
        }
    return sum;
}

std::uint64_t
droppedKernelSpans()
{
    std::lock_guard<std::mutex> lock(g_mu);
    std::uint64_t n = 0;
    for (const auto &b : g_bufs)
        n += b->dropped;
    return n;
}

namespace {

/** Per-name duration and self time over a set of spans. */
struct LayerTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
};

std::vector<LayerTime>
selfTimes(const std::vector<SpanRec> &spans)
{
    // Child time is charged only within one thread: a lane's spans run
    // concurrently with the main thread's sweep span, so subtracting
    // them would make self time negative.
    std::unordered_map<std::uint64_t, std::int64_t> child_ns;
    std::unordered_map<std::uint64_t, std::uint32_t> thread_of;
    for (const SpanRec &s : spans)
        if (!s.kernel)
            thread_of[s.id] = s.thread;
    for (const SpanRec &s : spans) {
        if (s.kernel)
            continue;  // charged through the parent's kernel_ns
        auto p = thread_of.find(s.parent);
        if (p != thread_of.end() && p->second == s.thread)
            child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::vector<LayerTime> rows;
    std::unordered_map<std::string, std::size_t> row_of;
    for (const SpanRec &s : spans) {
        if (s.kernel)
            continue;
        auto [it, fresh] = row_of.try_emplace(s.name, rows.size());
        if (fresh)
            rows.push_back({s.name, 0, 0, 0});
        LayerTime &r = rows[it->second];
        const std::int64_t dur = s.end_ns - s.start_ns;
        ++r.count;
        r.total_ms += dur / 1e6;
        r.self_ms += (dur - s.kernel_ns - child_ns[s.id]) / 1e6;
    }
    return rows;
}

} // namespace

bool
writeChromeTrace(const std::string &path, const std::vector<SpanRec> &spans,
                 const std::string &provenance_json)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    bool first = true;
    for (const SpanRec &s : spans) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%llu,\"parent\":%llu,\"op\":%llu}}",
                     first ? "" : ",", s.name, s.thread, s.start_ns / 1e3,
                     (s.end_ns - s.start_ns) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.op));
        first = false;
    }
    std::fprintf(f, "\n],\n\"provenance\":%s,\n\"self_time\":[",
                 provenance_json.c_str());
    first = true;
    for (const LayerTime &r : selfTimes(spans)) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"count\":%llu,"
                     "\"total_ms\":%.6f,\"self_ms\":%.6f}",
                     first ? "" : ",", r.name.c_str(),
                     static_cast<unsigned long long>(r.count), r.total_ms,
                     r.self_ms);
        first = false;
    }
    const KernelCensus census = kernelCensus();
    for (std::size_t c = 0; c < kNumKernelClasses; ++c) {
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"count\":%llu,"
                     "\"total_ms\":%.6f,\"self_ms\":%.6f}",
                     kSpanNames[c],
                     static_cast<unsigned long long>(census[c].calls),
                     census[c].ns / 1e6, census[c].ns / 1e6);
    }
    std::fprintf(f, "\n],\n\"dropped_kernel_spans\":%llu}\n",
                 static_cast<unsigned long long>(droppedKernelSpans()));
    return std::fclose(f) == 0;
}

} // namespace rsnbench::trace
