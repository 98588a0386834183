#include "workload/batch_app.h"

#include "common/log.h"

namespace ubik {

char
batchClassCode(BatchClass c)
{
    switch (c) {
      case BatchClass::Insensitive:
        return 'n';
      case BatchClass::Friendly:
        return 'f';
      case BatchClass::Fitting:
        return 't';
      case BatchClass::Streaming:
        return 's';
    }
    panic("bad BatchClass");
}

BatchClass
batchClassFromCode(char code)
{
    switch (code) {
      case 'n':
        return BatchClass::Insensitive;
      case 'f':
        return BatchClass::Friendly;
      case 't':
        return BatchClass::Fitting;
      case 's':
        return BatchClass::Streaming;
      default:
        fatal("unknown batch class code '%c'", code);
    }
}

BatchAppParams
BatchAppParams::scaled(double scale) const
{
    ubik_assert(scale >= 1.0);
    BatchAppParams p = *this;
    std::uint64_t s = static_cast<std::uint64_t>(
        static_cast<double>(wsLines) / scale);
    p.wsLines = s ? s : 1;
    return p;
}

namespace batch_presets {

BatchAppParams
make(BatchClass cls, std::uint32_t variation)
{
    // Deterministic intra-class spread: +/-25% intensity, +/-30%
    // footprint across variations.
    double iv = 1.0 + 0.25 * (static_cast<double>(variation % 5) - 2) /
                          2.0;
    double fv = 1.0 + 0.30 * (static_cast<double>((variation / 5) % 5) -
                              2) /
                          2.0;
    BatchAppParams p;
    p.cls = cls;
    switch (cls) {
      case BatchClass::Insensitive:
        // Hot set far smaller than any plausible partition; whatever
        // space it gets beyond that is wasted.
        p.apki = 4.0 * iv;
        p.wsLines = static_cast<std::uint64_t>(4096 * fv);  // ~256KB
        p.theta = 1.2;
        p.mlp = 2.0;
        break;
      case BatchClass::Friendly:
        // Smooth concave miss curve: every extra line helps a bit.
        p.apki = 20.0 * iv;
        p.wsLines = static_cast<std::uint64_t>(131072 * fv); // ~8MB
        p.theta = 0.6;
        p.mlp = 2.0;
        break;
      case BatchClass::Fitting:
        // Circular scan: all-miss under LRU until the allocation
        // covers the whole set, then all-hit (step curve).
        p.apki = 15.0 * iv;
        p.wsLines = static_cast<std::uint64_t>(49152 * fv);  // ~3MB
        p.theta = 0.0;
        p.mlp = 3.0;
        break;
      case BatchClass::Streaming:
        // No reuse at any size.
        p.apki = 30.0 * iv;
        p.wsLines = 1ull << 26; // 4G-line stream, never wraps in-run
        p.theta = 0.0;
        p.mlp = 4.0;
        break;
    }
    p.baseIpc = 1.5;
    p.name = std::string(1, batchClassCode(cls)) +
             std::to_string(variation);
    return p;
}

} // namespace batch_presets

BatchApp::BatchApp(BatchAppParams params, std::uint32_t instance, Rng rng)
    : params_(std::move(params)), rng_(rng)
{
    // Only the skewed classes draw from a Zipf distribution; building
    // one for a scan class would cost up to 2^20 pow() calls (a
    // streaming app's 2^26-line footprint) for a table never read.
    // The constructor draws no randomness either way.
    if (params_.cls == BatchClass::Insensitive ||
        params_.cls == BatchClass::Friendly)
        zipf_.emplace(params_.wsLines ? params_.wsLines : 1,
                      params_.theta > 0 ? params_.theta : 0.01);
    // Batch instances live above LC instances in the address space.
    base_ = static_cast<Addr>(instance + 64) << 40;
}

void
BatchApp::bindTrace(std::shared_ptr<const TraceData> trace)
{
    ubik_assert(trace != nullptr);
    if (trace->accesses.empty())
        fatal("BatchApp::bindTrace: trace has no accesses");
    trace_ = std::move(trace);
    cursor_ = 0;
    // Shift by (instance << 40): instance 0 replays the recorded
    // addresses verbatim, later instances land in disjoint regions.
    // base_ is (instance + 64) << 40.
    traceSalt_ = base_ - (static_cast<Addr>(64) << 40);
}

Addr
BatchApp::nextAddr()
{
    if (trace_) {
        Addr a = traceSalt_ + trace_->accesses[cursor_];
        cursor_ = (cursor_ + 1) % trace_->accesses.size();
        return a;
    }
    switch (params_.cls) {
      case BatchClass::Insensitive:
      case BatchClass::Friendly:
        return base_ + (*zipf_)(rng_);
      case BatchClass::Fitting: {
        Addr a = base_ + cursor_;
        cursor_ = (cursor_ + 1) % params_.wsLines;
        return a;
      }
      case BatchClass::Streaming: {
        Addr a = base_ + cursor_;
        cursor_++;
        return a;
      }
    }
    panic("bad BatchClass");
}

} // namespace ubik
