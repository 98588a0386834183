/**
 * @file
 * Seeded mutation fuzzing of the trace readers. A small captured
 * trace, written as v2 and as v1, takes a few thousand mutations per
 * format (bit flips, byte inserts and deletes, truncation, duplicated
 * byte ranges, bytes appended past the END footer), and each mutant is read through TraceReader with the
 * prefetcher on and off, under a FatalTrap. Every read must end in a
 * fatal() or at a clean end of trace; a clean v2 read must carry the
 * original content hash (its chunks are checksummed, so a mutant can
 * only read cleanly if the change left the records alone); and the
 * two prefetch modes must agree, error message included. A crash, a
 * hang or a std::terminate fails the binary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "trace/access_trace.h"
#include "trace/trace_reader.h"
#include "workload/trace_capture.h"

namespace ubik {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr int kMutationsPerFormat = 2500;

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

Bytes
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::string &path, const Bytes &b)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(b.data()),
              static_cast<std::streamsize>(b.size()));
}

/** How one read ended. */
struct ReadOutcome
{
    bool clean = false;
    std::string error; ///< the fatal() message, if not clean
    std::uint64_t hash = 0;
    std::uint64_t requests = 0;
    std::uint64_t accesses = 0;

    bool
    operator==(const ReadOutcome &o) const
    {
        return clean == o.clean && error == o.error && hash == o.hash &&
               requests == o.requests && accesses == o.accesses;
    }
};

ReadOutcome
readAll(const std::string &path, bool prefetch)
{
    FatalTrap trap;
    ReadOutcome out;
    try {
        TraceReaderOptions opt;
        opt.batchRecords = 64;
        opt.prefetch = prefetch;
        TraceReader reader(path, opt);
        TraceBatch batch;
        while (reader.next(batch)) {
        }
        out.clean = true;
        out.hash = reader.contentHash();
        out.requests = reader.requests();
        out.accesses = reader.accesses();
    } catch (const FatalError &e) {
        out.error = e.what();
    }
    return out;
}

/** One seeded mutation of a non-empty file. */
Bytes
mutate(const Bytes &in, Rng &rng)
{
    Bytes b = in;
    const std::size_t pos = rng.uniformInt(b.size());
    switch (rng.uniformInt(6)) {
      case 0: // flip one to three bits
        for (std::uint64_t n = 1 + rng.uniformInt(3); n > 0; n--)
            b[rng.uniformInt(b.size())] ^=
                static_cast<std::uint8_t>(1u << rng.uniformInt(8));
        break;
      case 1: // insert a byte, possibly past the end
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(
                                 rng.uniformInt(b.size() + 1)),
                 static_cast<std::uint8_t>(rng.uniformInt(256)));
        break;
      case 2: // delete a byte
        b.erase(b.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
      case 3: // truncate
        b.resize(pos);
        break;
      case 4: // append up to 16 bytes
        for (std::uint64_t n = 1 + rng.uniformInt(16); n > 0; n--)
            b.push_back(static_cast<std::uint8_t>(rng.uniformInt(256)));
        break;
      default: { // duplicate a range of up to 64 bytes elsewhere
        const std::size_t len =
            1 + rng.uniformInt(std::min<std::size_t>(64, b.size() - pos));
        const Bytes range(b.begin() + static_cast<std::ptrdiff_t>(pos),
                          b.begin() +
                              static_cast<std::ptrdiff_t>(pos + len));
        const std::size_t at = rng.uniformInt(b.size() + 1);
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(at),
                 range.begin(), range.end());
        break;
      }
    }
    return b;
}

TEST(TraceReaderFuzz, MutatedTracesAreFatalOrClean)
{
    const TraceData td =
        captureLcTrace(lc_presets::shore().scaled(16.0), 12, /*seed=*/3);
    ASSERT_GT(td.accesses.size(), 100u);
    for (std::uint8_t version : {2, 1}) {
        SCOPED_TRACE("v" + std::to_string(version));
        const std::string base =
            tmpPath("fuzz_base_v" + std::to_string(version) + ".ubtr");
        // Small chunks, so a v2 file holds many of them.
        writeTrace(td, base, TraceWriterOptions{version, 256});
        const Bytes original = readBytes(base);
        const ReadOutcome ref = readAll(base, true);
        ASSERT_TRUE(ref.clean) << ref.error;
        ASSERT_EQ(ref.accesses, td.accesses.size());

        const std::string path = tmpPath("fuzz_mutant.ubtr");
        Rng rng(41 + version);
        std::size_t fatals = 0, cleans = 0;
        for (int i = 0; i < kMutationsPerFormat; i++) {
            const Bytes mutant = mutate(original, rng);
            writeBytes(path, mutant);
            const ReadOutcome on = readAll(path, true);
            const ReadOutcome off = readAll(path, false);
            EXPECT_TRUE(on == off)
                << "mutation " << i << ": prefetch on '" << on.error
                << "' vs off '" << off.error << "'";
            if (!on.clean) {
                fatals++;
                EXPECT_FALSE(on.error.empty()) << "mutation " << i;
                continue;
            }
            cleans++;
            if (version == 2) {
                EXPECT_EQ(on.hash, ref.hash)
                    << "mutation " << i << " read cleanly with other "
                    << "records";
            }
        }
        // Both endings occur, so neither check above is vacuous (the
        // readers ignore bytes past the END footer).
        EXPECT_GT(fatals, 0u);
        EXPECT_GT(cleans, 0u);
        std::printf("[fuzz] v%u: %zu fatal, %zu clean of %d mutants\n",
                    version, fatals, cleans, kMutationsPerFormat);
    }
}

} // namespace
} // namespace ubik
