#include "sim/fault.hh"

#include <cmath>
#include <cstring>

#include "common/log.hh"
#include "sim/chunk.hh"
#include "sim/engine.hh"

namespace rsn::sim {

namespace {

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Salt bases keeping the per-purpose decision streams independent. */
enum Salt : std::uint64_t {
    kSaltStallFire = 0x10,
    kSaltStallLen = 0x20,
    kSaltLinkDrop = 0x1000,    // + attempt
    kSaltDramFail = 0x2000,    // + attempt
    kSaltFlipFire = 0x30,
    kSaltFlipBit = 0x40,
};

std::string
formatTicks(Tick t)
{
    return std::to_string(static_cast<unsigned long long>(t));
}

} // namespace

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::LinkStall: return "link-stall";
      case FaultKind::LinkRetry: return "link-retry";
      case FaultKind::LinkDead: return "link-dead";
      case FaultKind::DramRetry: return "dram-retry";
      case FaultKind::DramDead: return "dram-dead";
      case FaultKind::BitFlip: return "bit-flip";
      case FaultKind::ChecksumMismatch: return "checksum-mismatch";
    }
    return "unknown";
}

std::string
FaultRecord::toString() const
{
    return "[tick " + formatTicks(tick) + "] " + faultKindName(kind) +
           " at " + site + " (decision #" +
           std::to_string(static_cast<unsigned long long>(seq)) + ")" +
           (detail.empty() ? "" : ": " + detail);
}

// ------------------------------------------------------------ FaultSpec --

Status
FaultSpec::validate() const
{
    auto err = [](std::string m) {
        return Status::error(StatusCode::InvalidConfig, std::move(m));
    };
    auto rate_ok = [](double r) {
        return std::isfinite(r) && r >= 0.0 && r <= 1.0;
    };
    if (!rate_ok(link_stall_rate) || !rate_ok(link_drop_rate) ||
        !rate_ok(dram_rate) || !rate_ok(flip_rate))
        return err("fault rates must be probabilities in [0, 1]");
    if (link_stall_rate > 0 && link_stall_max == 0)
        return err("link_stall_max must be >= 1 when stalls are armed");
    if (max_retries > 30)
        return err("max_retries must be <= 30");
    if (backoff_base > (Tick(1) << 40))
        return err("backoff_base is implausibly large");
    if (window_begin > window_end)
        return err("fault window is empty (begin > end)");
    return Status::success();
}

std::string
FaultSpec::toString() const
{
    std::string s = "seed=" + std::to_string(seed);
    auto add = [&s](const char *k, double v) {
        if (v > 0)
            s += std::string(",") + k + "=" + std::to_string(v);
    };
    add("link_stall", link_stall_rate);
    if (link_stall_rate > 0)
        s += ",stall_max=" + formatTicks(link_stall_max);
    add("link_drop", link_drop_rate);
    add("dram", dram_rate);
    add("flip", flip_rate);
    s += ",retries=" + std::to_string(max_retries);
    s += ",backoff=" + formatTicks(backoff_base);
    if (window_begin != 0 || window_end != kTickMax)
        s += ",window=" + formatTicks(window_begin) + ":" +
             formatTicks(window_end);
    if (checksums)
        s += ",checksums=1";
    return s;
}

FaultSpec
FaultSpec::chaosPreset(std::uint64_t seed)
{
    FaultSpec f;
    f.seed = seed;
    f.link_stall_rate = 0.02;
    f.link_stall_max = 64;
    f.link_drop_rate = 0.01;
    f.dram_rate = 0.02;
    f.flip_rate = 0.002;
    f.max_retries = 6;
    f.backoff_base = 32;
    return f;
}

FaultSpec
FaultSpec::parse(const std::string &text, Status *status)
{
    FaultSpec spec;
    auto fail = [&](const std::string &why) {
        if (status)
            *status = Status::error(StatusCode::InvalidConfig,
                                    "bad fault spec '" + text + "': " + why);
        return FaultSpec{};
    };
    if (status)
        *status = Status::success();
    if (text == "chaos")
        return chaosPreset(0);

    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        std::string kv = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (kv.empty())
            continue;
        std::size_t eq = kv.find('=');
        if (eq == std::string::npos)
            return fail("expected key=value, got '" + kv + "'");
        std::string key = kv.substr(0, eq);
        std::string val = kv.substr(eq + 1);
        try {
            if (key == "seed")
                spec.seed = std::stoull(val);
            else if (key == "link_stall")
                spec.link_stall_rate = std::stod(val);
            else if (key == "stall_max")
                spec.link_stall_max = std::stoull(val);
            else if (key == "link_drop")
                spec.link_drop_rate = std::stod(val);
            else if (key == "dram")
                spec.dram_rate = std::stod(val);
            else if (key == "flip")
                spec.flip_rate = std::stod(val);
            else if (key == "retries")
                spec.max_retries =
                    static_cast<std::uint32_t>(std::stoul(val));
            else if (key == "backoff")
                spec.backoff_base = std::stoull(val);
            else if (key == "checksums")
                spec.checksums = std::stoul(val) != 0;
            else if (key == "window") {
                std::size_t colon = val.find(':');
                if (colon == std::string::npos)
                    return fail("window wants begin:end");
                spec.window_begin = std::stoull(val.substr(0, colon));
                spec.window_end = std::stoull(val.substr(colon + 1));
            } else {
                return fail("unknown key '" + key + "'");
            }
        } catch (const std::exception &) {
            return fail("unparsable value '" + val + "' for '" + key + "'");
        }
    }
    if (Status v = spec.validate(); !v.ok())
        return fail(v.message);
    return spec;
}

// -------------------------------------------------------- FaultInjector --

FaultInjector::FaultInjector(const FaultSpec &spec, Engine &eng)
    : spec_(spec), eng_(eng), checksums_on_(spec.checksumsOn())
{
    Status v = spec_.validate();
    rsn_assert(v.ok(), "FaultInjector built from invalid spec: %s",
               v.toString().c_str());
}

void
FaultInjector::reset()
{
    for (Site &s : sites_)
        s.seq = 0;
    protected_.clear();
    log_.clear();
    for (auto &c : counts_)
        c = 0;
    total_ = 0;
    hard_fault_ = {};
    hard_faulted_ = false;
}

void
FaultInjector::reseed(std::uint64_t seed)
{
    checkOwner("reseed");
    spec_.seed = seed;
    reset();
}

FaultInjector::SiteId
FaultInjector::registerSite(const std::string &name)
{
    checkOwner("registerSite");
    sites_.push_back(Site{name, fnv1a64(name), 0});
    return static_cast<SiteId>(sites_.size() - 1);
}

void
FaultInjector::checkOwner(const char *op) const
{
#if RSN_FAULT_OWNER_CHECKS
    rsn_assert(std::this_thread::get_id() == owner_,
               "FaultInjector::%s from a foreign thread — injectors are "
               "lane-owned, one per machine (docs/datapath.md, threading "
               "contract)", op);
#else
    (void)op;
#endif
}

std::uint64_t
FaultInjector::bits(const Site &site, std::uint64_t seq,
                    std::uint64_t salt) const
{
    // Pure function of (seed, site name, sequence, purpose): the schedule
    // is bit-identical for a seed regardless of registration order or
    // wall-clock anything.
    return mix64(spec_.seed ^ mix64(site.hash + seq * 0x9e3779b97f4a7c15ull +
                                    salt));
}

double
FaultInjector::draw(const Site &site, std::uint64_t seq,
                    std::uint64_t salt) const
{
    return static_cast<double>(bits(site, seq, salt) >> 11) * 0x1.0p-53;
}

void
FaultInjector::record(FaultKind kind, const Site &site, std::uint64_t seq,
                      std::string detail)
{
    ++counts_[static_cast<int>(kind)];
    ++total_;
    if (log_.size() < kMaxLogRecords)
        log_.push_back(FaultRecord{kind, eng_.now(), site.name, seq,
                                   std::move(detail)});
}

void
FaultInjector::hardFault(FaultKind kind, const Site &site, std::uint64_t seq,
                         std::string detail)
{
    record(kind, site, seq, detail);
    if (!hard_faulted_) {
        hard_faulted_ = true;
        hard_fault_ = FaultRecord{kind, eng_.now(), site.name, seq,
                                  std::move(detail)};
    }
    // End the *run*, not the process: the engine stops at the next batch
    // boundary and the machine reports a structured diagnosis.
    eng_.requestStop();
}

FaultInjector::Outcome
FaultInjector::retryOutcome(Site &site, std::uint64_t seq, double rate,
                            Tick attempt_ticks, std::uint64_t salt,
                            FaultKind transient, FaultKind dead)
{
    Outcome o;
    if (rate <= 0)
        return o;
    std::uint32_t fails = 0;
    while (fails <= spec_.max_retries &&
           draw(site, seq, salt + fails) < rate)
        ++fails;
    if (fails == 0)
        return o;
    if (fails > spec_.max_retries) {
        // Every attempt failed: the site burned all retries (occupancy
        // and backoff still accrue — failure costs time) and gave up.
        o.dead = true;
        o.retries = spec_.max_retries;
        for (std::uint32_t i = 0; i < spec_.max_retries; ++i)
            o.extra += attempt_ticks + backoff(i);
        hardFault(dead, site, seq,
                  "gave up after " + std::to_string(spec_.max_retries + 1) +
                      " attempts");
        return o;
    }
    o.retries = fails;
    for (std::uint32_t i = 0; i < fails; ++i)
        o.extra += attempt_ticks + backoff(i);
    record(transient, site, seq,
           std::to_string(fails) + " retr" + (fails == 1 ? "y" : "ies") +
               ", +" + formatTicks(o.extra) + " ticks");
    return o;
}

FaultInjector::Outcome
FaultInjector::onLinkAdmit(SiteId s, Tick xfer_ticks)
{
    checkOwner("onLinkAdmit");
    Site &site = sites_[s];
    std::uint64_t seq = site.seq++;
    if (!inWindow(eng_.now()))
        return {};
    Outcome o;
    if (spec_.link_stall_rate > 0 &&
        draw(site, seq, kSaltStallFire) < spec_.link_stall_rate) {
        Tick stall = 1 + bits(site, seq, kSaltStallLen) %
                             spec_.link_stall_max;
        o.extra += stall;
        record(FaultKind::LinkStall, site, seq,
               "+" + formatTicks(stall) + " ticks");
    }
    Outcome drops =
        retryOutcome(site, seq, spec_.link_drop_rate, xfer_ticks,
                     kSaltLinkDrop, FaultKind::LinkRetry,
                     FaultKind::LinkDead);
    o.extra += drops.extra;
    o.retries = drops.retries;
    o.dead = drops.dead;
    return o;
}

FaultInjector::Outcome
FaultInjector::onDramAccess(SiteId s, Tick service_ticks)
{
    checkOwner("onDramAccess");
    Site &site = sites_[s];
    std::uint64_t seq = site.seq++;
    if (!inWindow(eng_.now()))
        return {};
    return retryOutcome(site, seq, spec_.dram_rate, service_ticks,
                        kSaltDramFail, FaultKind::DramRetry,
                        FaultKind::DramDead);
}

void
FaultInjector::stampChecksum(SiteId s, Chunk &c)
{
    (void)s;
    checkOwner("stampChecksum");
    if (!checksums_on_ || !c.hasData())
        return;
    // The payload moves through the network by reference (pooled tile),
    // so its buffer pointer is its identity. Every stamped payload is
    // consumed by exactly one Mem-FU ingress (docs/robustness.md), which
    // erases the entry — the pool cannot recycle the buffer while the
    // in-flight chunk holds its reference, so keys never go stale. The
    // hash covers the tile's byte window, whatever its dtype.
    protected_[c.data.raw()] = payloadChecksum(c.data.raw(), c.bytes());
}

void
FaultInjector::ingressCheck(SiteId s, Chunk &c)
{
    checkOwner("ingressCheck");
    if (!checksums_on_ || !c.hasData())
        return;
    auto it = protected_.find(c.data.raw());
    if (it == protected_.end())
        return;
    const std::uint64_t expect = it->second;
    protected_.erase(it);

    Site &site = sites_[s];
    std::uint64_t seq = site.seq++;
    if (spec_.flip_rate > 0 && inWindow(eng_.now()) &&
        draw(site, seq, kSaltFlipFire) < spec_.flip_rate) {
        // Corrupt one bit of the payload (copy-on-write if shared), then
        // let the verification below catch it — flips are only injected
        // into protected chunks, so corruption is always detected. The
        // flip targets the byte window, so a typed tile's upper bytes
        // are just as exposed as a float's.
        const std::uint64_t nbytes = c.bytes();
        std::uint64_t target = bits(site, seq, kSaltFlipBit);
        std::uint64_t byte = target % nbytes;
        std::uint32_t bit = static_cast<std::uint32_t>(
            (target / nbytes) % 8);
        auto *p = static_cast<unsigned char *>(
            c.data.ensureUniqueRaw(c.elems()));
        p[byte] ^= static_cast<unsigned char>(1u << bit);
        record(FaultKind::BitFlip, site, seq,
               "byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
    }
    if (payloadChecksum(c.data.raw(), c.bytes()) != expect)
        hardFault(FaultKind::ChecksumMismatch, site, seq,
                  "payload corrupted in transit (" +
                      std::to_string(c.rows) + "x" +
                      std::to_string(c.cols) + " tile)");
}

std::uint64_t
payloadChecksum(const void *p, std::uint64_t bytes)
{
    // Four independent lanes, each h = (h ^ w) * odd over 8-byte words:
    // every step is a bijection of the lane state, so a change confined
    // to one word changes its lane's final state, and the bijective
    // finalizer carries that into the xor of the lanes.
    constexpr std::uint64_t kOdd = 0x9e3779b97f4a7c15ull;
    const auto *b = static_cast<const unsigned char *>(p);
    std::uint64_t h[4] = {0xcbf29ce484222325ull, 0x84222325cbf29ce4ull,
                          0x6a09e667f3bcc908ull, 0xbb67ae8584caa73bull};
    auto word = [b](std::uint64_t at, std::uint64_t n) {
        std::uint64_t w = 0;
        std::memcpy(&w, b + at, n);
        return w;
    };
    auto step = [](std::uint64_t &lane, std::uint64_t w) {
        lane = (lane ^ w) * kOdd;
    };
    std::uint64_t i = 0;
    for (; i + 32 <= bytes; i += 32) {
        step(h[0], word(i, 8));
        step(h[1], word(i + 8, 8));
        step(h[2], word(i + 16, 8));
        step(h[3], word(i + 24, 8));
    }
    for (int l = 0; i + 8 <= bytes; i += 8, ++l)
        step(h[l], word(i, 8));
    if (i < bytes)  // At most three whole words precede the tail.
        step(h[3], word(i, bytes - i));
    return mix64(h[0]) ^ mix64(h[1]) ^ mix64(h[2]) ^ mix64(h[3]);
}

} // namespace rsn::sim
