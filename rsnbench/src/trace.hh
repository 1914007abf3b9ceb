/**
 * @file
 * In-memory span recorder for the traced run (README.md, "Tracing").
 *
 * Spans are recorded from the benchmark's own files around calls into
 * the library's public functions (machine acquire, compile, tensor
 * init, run, reference, serving, sweep calls) and, through the kernel
 * shim (shim.hh), around every payload-kernel call. Each span keeps its
 * name, start, end, parent and op id. Nothing is written until the run
 * ends; in untraced runs the recorder is off (one flag check per span).
 *
 * Threads: every thread appends to its own buffer, registered once
 * under a mutex, so lanes of the sweep executor record without sharing
 * a cache line. Buffers outlive their threads and are read only after
 * every executor call has joined.
 *
 * Self time: a span's duration minus the time covered by its children
 * on the same thread, payload kernels included. Kernel calls are always
 * counted (calls, ns, work); individual kernel spans are kept only up to
 * a fixed budget so a long traced run cannot exhaust memory, and their
 * time is charged to the enclosing span whether or not the span itself
 * was kept.
 */

#ifndef RSNBENCH_TRACE_HH
#define RSNBENCH_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace rsnbench::trace {

/** Payload-kernel classes, one per KernelTable entry. */
enum class KernelClass : std::uint8_t {
    GemmF32,
    GemmBf16,
    ConvertToF32,
    ConvertFromF32,
    Softmax,
    Gelu,
    Layernorm,
    Transpose,
    TransposeU16,
};
inline constexpr std::size_t kNumKernelClasses = 9;

/** "gemm_f32", "gemm_bf16", "convert_to_f32", ... */
const char *kernelClassName(KernelClass c);

/** Exact per-class totals over every recorded kernel call. */
struct KernelTotals {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
    /** FLOPs (2*m*k*n) for the GEMMs, bytes read + written for the
     *  conversions, elements for the rest. */
    std::uint64_t work = 0;
};
using KernelCensus = std::array<KernelTotals, kNumKernelClasses>;

struct SpanRec {
    const char *name = nullptr;  ///< String literal; never freed.
    std::uint64_t id = 0;
    std::uint64_t parent = 0;    ///< 0 = top level.
    std::uint64_t op = 0;
    std::uint32_t thread = 0;
    bool kernel = false;
    std::int64_t start_ns = 0;   ///< From process start.
    std::int64_t end_ns = 0;
    std::int64_t kernel_ns = 0;  ///< Same-thread kernel time inside.
};

/**
 * Start or stop recording (main thread, no executor call running).
 * Recording state — spans, kernel totals — accumulates across phases.
 */
void enable(bool on);

/** Monotonic ns since process start. */
std::int64_t nowNs();

/**
 * RAII span. A no-op when recording is off. Opened on a thread with no
 * open span, its parent is the current root (setRoot), which lets spans
 * on executor lanes hang under the main thread's sweep span.
 */
class Span
{
  public:
    Span(const char *name, std::uint64_t op);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return id_; }
    /** Name the span after the fact (a machine acquire is a build or a
     *  reset, known only once the call returns). */
    void rename(const char *name) { name_ = name; }

  private:
    const char *name_;
    std::uint64_t id_ = 0;
    std::uint64_t op_ = 0;
    std::uint64_t parent_ = 0;
    std::int64_t start_ = 0;
};

/** Parent/op for spans and kernel calls on threads with no open span. */
void setRoot(std::uint64_t span_id, std::uint64_t op);

/** One kernel call (shim.cc); @p work as in KernelTotals. */
void kernelCall(KernelClass c, std::int64_t start_ns, std::int64_t end_ns,
                std::uint64_t work);

/** Everything recorded so far (call after all lanes joined). */
std::vector<SpanRec> spans();
KernelCensus kernelCensus();
/** Kernel spans not kept because the span budget ran out. */
std::uint64_t droppedKernelSpans();

/**
 * Write the spans as Chrome trace-event JSON (chrome://tracing,
 * Perfetto), with @p provenance_json and a per-name table of total and
 * self time as extra top-level keys. Returns false if the file cannot
 * be written.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRec> &spans,
                      const std::string &provenance_json);

} // namespace rsnbench::trace

#endif // RSNBENCH_TRACE_HH
