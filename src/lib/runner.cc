#include "lib/runner.hh"

#include <algorithm>

#include "common/log.hh"

namespace rsn::lib {

void
initTensors(core::RsnMachine &mach, const CompiledModel &compiled,
            std::uint32_t seed, float scale)
{
    if (!mach.host().functional())
        return;
    std::uint32_t salt = 1;
    for (const auto &t : compiled.tensors) {
        if (t.name == "input" || t.is_weight) {
            ref::Matrix m = ref::randomMatrix(t.rows, t.cols,
                                              seed + salt, scale);
            mach.host().fillRegion(t.addr, m.data.data(), m.data.size());
        }
        ++salt;
    }
}

ref::Matrix
readTensor(core::RsnMachine &mach, const CompiledModel &compiled,
           const std::string &name)
{
    const TensorInfo &t = compiled.tensor(name);
    ref::Matrix m(t.rows, t.cols, mach.host().readRegion(t.addr));
    rsn_assert(m.data.size() == std::size_t(t.rows) * t.cols,
               "tensor read shape mismatch");
    return m;
}

namespace {

/** Copy the h x w block of @p m whose top-left element is (r0, c0). */
ref::Matrix
block(const ref::Matrix &m, std::uint32_t r0, std::uint32_t h,
      std::uint32_t c0, std::uint32_t w)
{
    ref::Matrix out(h, w);
    for (std::uint32_t i = 0; i < h; ++i) {
        const float *src = m.data.data() + std::size_t(r0 + i) * m.cols + c0;
        std::copy(src, src + w, out.data.data() + std::size_t(i) * w);
    }
    return out;
}

void
placeBlock(ref::Matrix &dst, const ref::Matrix &block, std::uint32_t r0,
           std::uint32_t c0)
{
    for (std::uint32_t i = 0; i < block.rows; ++i)
        for (std::uint32_t j = 0; j < block.cols; ++j)
            dst.at(r0 + i, c0 + j) = block.at(i, j);
}

} // namespace

References
referenceForward(core::RsnMachine &mach, const Model &model,
                 const CompiledModel &compiled)
{
    References acts;
    acts["input"] = readTensor(mach, compiled, "input");

    for (const auto &seg : model.segments) {
        if (const auto *l = std::get_if<LinearLayer>(&seg)) {
            const ref::Matrix &in =
                acts.at(l->in_src.empty() ? "input" : l->in_src);
            ref::Matrix w = readTensor(mach, compiled, "W." + l->name);
            ref::Matrix out = ref::matmul(in, w);
            if (l->bias) {
                ref::Matrix b = readTensor(mach, compiled,
                                           "b." + l->name);
                out = ref::addBias(out, b.data);
            }
            // Epilogue order matches MemC: residual, gelu, layernorm.
            if (l->residual)
                out = ref::add(out, acts.at(l->residual_src));
            if (l->gelu)
                out = ref::gelu(out);
            if (l->layernorm) {
                ref::Matrix ln = readTensor(mach, compiled,
                                            "ln." + l->name);
                std::vector<float> gamma(ln.data.begin(),
                                         ln.data.begin() + ln.cols);
                std::vector<float> beta(ln.data.begin() + ln.cols,
                                        ln.data.begin() + 2 * ln.cols);
                out = ref::layernorm(out, gamma, beta);
            }
            acts[l->out_name] = std::move(out);
        } else if (const auto *a = std::get_if<AttentionBlock>(&seg)) {
            const std::uint32_t batch = a->heads / a->heads_per_batch;
            ref::Matrix out(batch * a->seq, a->heads_per_batch * a->dhead);
            const ref::Matrix &q_all = acts.at(a->q_src);
            const ref::Matrix &k_all = acts.at(a->k_src);
            const ref::Matrix &v_all = acts.at(a->v_src);
            for (std::uint32_t h = 0; h < a->heads; ++h) {
                const std::uint32_t b = h / a->heads_per_batch;
                const std::uint32_t j = h % a->heads_per_batch;
                const std::uint32_t r0 = b * a->seq;
                ref::Matrix q = block(q_all, r0, a->seq,
                                      a->q_col_off + j * a->dhead, a->dhead);
                ref::Matrix k = block(k_all, r0, a->seq,
                                      a->k_col_off + j * a->dhead, a->dhead);
                ref::Matrix v = block(v_all, r0, a->seq,
                                      a->v_col_off + j * a->dhead, a->dhead);
                ref::Matrix probs = ref::softmax(ref::matmulBt(q, k));
                ref::Matrix ctx = ref::matmul(probs, v);
                placeBlock(out, ctx, b * a->seq, j * a->dhead);
            }
            acts[a->out_name] = std::move(out);
        }
    }
    return acts;
}

References
seedAndReference(core::RsnMachine &mach, const Model &model,
                 const CompiledModel &compiled, std::uint32_t seed)
{
    if (!mach.host().functional())
        return {};
    initTensors(mach, compiled, seed);
    References refs = referenceForward(mach, model, compiled);
    refs.erase("input");  // Seeded, not produced: nothing to compare.
    return refs;
}

CheckedRun
runAndCompare(core::RsnMachine &mach, const CompiledModel &compiled,
              const References &refs, float rtol, float atol,
              Tick max_ticks)
{
    CheckedRun cr;
    cr.functional = mach.host().functional();
    cr.report = mach.runChecked(compiled.program, max_ticks);

    if (cr.functional && cr.report.ok()) {
        for (const auto &[name, expect] : refs) {
            if (!compiled.hasTensor(name))
                continue;
            ref::Matrix got = readTensor(mach, compiled, name);
            if (!ref::allclose(got, expect, rtol, atol)) {
                cr.outputs_ok = false;
                cr.mismatched.push_back(name);
            }
        }
    }
    return cr;
}

CheckedRun
runModelChecked(core::RsnMachine &mach, const Model &model,
                const CompiledModel &compiled, std::uint32_t seed,
                float rtol, float atol, Tick max_ticks)
{
    return runAndCompare(mach, compiled,
                         seedAndReference(mach, model, compiled, seed),
                         rtol, atol, max_ticks);
}

const ProgramCache::Entry &
ProgramCache::prepare(core::RsnMachine &mach, const Model &model,
                      const ScheduleOptions &opts, std::uint32_t seed)
{
    rsn_assert(mach.config().equalsIgnoringFaultSeed(cfg_),
               "program cache lookup under a different machine config");
    rsn_assert(seed == seed_,
               "program cache bound to tensor seed %u, looked up with %u",
               seed_, seed);
    rsn_assert(mach.host().allocatedBytes() == 0,
               "program cache needs a freshly built or reset machine");

    for (const Entry &e : entries_) {
        if (e.model != model || e.opts != opts)
            continue;
        // declareTensor is the only allocation site and records tensors
        // in allocation order, so replaying the table reproduces the
        // cold compile's layout; fresh regions come back zeroed.
        for (const TensorInfo &t : e.compiled.tensors) {
            const Addr a =
                mach.host().alloc(std::uint64_t(t.rows) * t.cols, t.name);
            rsn_assert(a == t.addr,
                       "tensor '%s' re-placed at %#llx, compiled at %#llx",
                       t.name.c_str(), (unsigned long long)a,
                       (unsigned long long)t.addr);
        }
        initTensors(mach, e.compiled, seed_);
        ++reused_;
        return e;
    }

    CompiledModel compiled = compileModel(mach, model, opts);
    References refs = seedAndReference(mach, model, compiled, seed_);
    ++compiled_;
    return entries_.emplace_back(
        Entry{model, opts, std::move(compiled), std::move(refs)});
}

} // namespace rsn::lib
