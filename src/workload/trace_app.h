/**
 * @file
 * Trace-backed workloads: a captured (or externally converted) LLC
 * access trace promoted to a first-class app the simulator can run,
 * alongside the synthetic LcApp/BatchApp generators.
 *
 * A TraceApp owns one loaded trace (streamed in through TraceReader,
 * so loading never double-buffers the file) plus the identity the
 * rest of the stack needs: a content hash over the logical record
 * stream. The hash is what ResultCache keys embed for trace-backed
 * mixes — two traces with identical records share cached results no
 * matter which file or format version they came from, and any edit
 * to the trace invalidates them.
 *
 * Replay semantics (see LcApp::bindTrace / BatchApp::bindTrace):
 * replayed as an LC app, REQUEST records drive the request harness
 * and the recorded per-request access stream replays verbatim;
 * replayed as a batch app, the access stream loops with no request
 * structure. Either way instance i shifts every address by
 * (i << 40), so multiple instances of one trace occupy disjoint
 * address spaces — and instance 0 replays the captured addresses
 * exactly, which is what makes capture-then-replay bit-identical to
 * direct simulation (tests/integration/trace_fidelity_test.cpp).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "trace/access_trace.h"
#include "trace/trace_reader.h"

namespace ubik {

/** One loaded, hashable trace workload. Immutable once built. */
class TraceApp
{
  public:
    /** Load `path` (v1 or v2) through the streaming reader. */
    static std::shared_ptr<const TraceApp>
    load(const std::string &path, TraceReaderOptions opt = {});

    /** Wrap an in-memory trace (tests, capture pipelines). The
     *  content hash is computed from the records, so it matches what
     *  load() would produce for the same stream written to disk. */
    static std::shared_ptr<const TraceApp>
    fromData(std::shared_ptr<const TraceData> data);

    const std::shared_ptr<const TraceData> &data() const { return data_; }

    /** FNV-1a digest of the logical record stream (format-version
     *  independent; see TraceReader::contentHash). */
    std::uint64_t contentHash() const { return contentHash_; }

    std::uint64_t requests() const { return data_->requests(); }
    std::uint64_t accesses() const { return data_->accesses.size(); }
    double apki() const { return data_->apki(); }

  private:
    TraceApp() = default;

    std::shared_ptr<const TraceData> data_;
    std::uint64_t contentHash_ = 0;
};

/** Content hash of an in-memory trace — the same digest TraceReader
 *  computes while streaming the equivalent file. */
std::uint64_t traceContentHash(const TraceData &trace);

} // namespace ubik
