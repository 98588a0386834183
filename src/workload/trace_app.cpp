#include "workload/trace_app.h"

#include <cstring>
#include <utility>

#include "trace/trace_format.h"
#include "common/hash.h"
#include "common/log.h"

namespace ubik {

std::uint64_t
traceContentHash(const TraceData &trace)
{
    std::uint64_t h = kFnvOffsetBasis;
    for (std::uint64_t r = 0; r < trace.requests(); r++) {
        h = fnv1a64(h, trace_format::kRecRequest);
        std::uint64_t bits;
        double work = trace.requestWork[r];
        std::memcpy(&bits, &work, sizeof(bits));
        h = fnv1a64(h, bits);
        std::uint64_t begin = trace.requestStart[r];
        std::uint64_t end = r + 1 < trace.requests()
                                ? trace.requestStart[r + 1]
                                : trace.accesses.size();
        for (std::uint64_t a = begin; a < end; a++) {
            h = fnv1a64(h, trace_format::kRecAccess);
            h = fnv1a64(h, trace.accesses[a]);
        }
    }
    return h;
}

std::shared_ptr<const TraceApp>
TraceApp::load(const std::string &path, TraceReaderOptions opt)
{
    TraceReader reader(path, opt);
    auto data = std::make_shared<TraceData>();
    TraceBatch batch;
    while (reader.next(batch))
        appendBatch(*data, batch);
    if (data->requests() == 0)
        fatal("trace app %s: trace has no requests", path.c_str());

    auto app = std::shared_ptr<TraceApp>(new TraceApp());
    app->data_ = std::move(data);
    app->contentHash_ = reader.contentHash();
    return app;
}

std::shared_ptr<const TraceApp>
TraceApp::fromData(std::shared_ptr<const TraceData> data)
{
    ubik_assert(data != nullptr);
    if (data->requests() == 0)
        fatal("trace app: in-memory trace has no requests");
    auto app = std::shared_ptr<TraceApp>(new TraceApp());
    app->contentHash_ = traceContentHash(*data);
    app->data_ = std::move(data);
    return app;
}

} // namespace ubik
