/**
 * @file
 * Seeded mutation fuzz of the failpoint schedule grammar. Valid
 * schedules covering every action, trigger, errno spelling, the
 * `,seed<k>` suffix and `random:<seed>` are mutated by bit flips, byte
 * inserts and deletes, truncation and duplicated ranges, then
 * configured under a FatalTrap. Each mutant must be rejected with a
 * fatal error, or arm a schedule whose echo
 * (failpointScheduleString), configured again, echoes the same text:
 * the replay promise the `[failpoints] armed:` line makes. Only
 * configuration runs; no site is evaluated, because a `hang` entry
 * would sleep.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/rng.h"

namespace ubik {
namespace {

/** Valid schedules: together they use every site, action, trigger
 *  form and errno name the grammar knows. */
const char *const kSchedules[] = {
    "cache.open=err@1;cache.append=err:EIO@2+;"
    "cache.fsync=err:ENOSPC@*;cache.refresh=err:ENOENT@p0.5;"
    "claim.create=err:EACCES@p0.05,seed7",
    "claim.heartbeat=err:EPERM@3;claim.release=err:EROFS@1+;"
    "claim.break=err:EMFILE@*;serve.accept=err:ENFILE@p1,seed0;"
    "serve.read=err:EDQUOT@p0,seed18446744073709551615",
    "serve.write=err:EFBIG@7;trace.write=err:EAGAIN@2;"
    "trace.read=err:EINTR@1;trace.checksum=err:EPIPE@4+;"
    "cache.open=err:ECONNRESET@1;cache.append=err:ECONNABORTED@2",
    "cache.append=short_write@3;cache.fsync=short_write:9@2+;"
    "cache.refresh=torn@1;claim.create=torn:17@p0.25,seed11;"
    "claim.heartbeat=hang:2s@1;claim.release=hang:0.5s@2+",
    "cache.append=err@p0.1234567,seed1;"
    "claim.heartbeat=hang:1.0000001s@1;serve.write=err:28@5,seed3",
    "random:31337",
    "random:0",
};

/** Apply one seeded mutation to `s`. */
void
mutate(std::string &s, Rng &rng)
{
    // Inserted bytes favour the grammar's own punctuation and digits,
    // so mutants often stay close enough to parse.
    static const char kAlphabet[] = ";=@:,+*ps.eE-0123456789";
    const std::size_t pos = s.empty() ? 0 : rng.uniformInt(s.size());
    switch (rng.uniformInt(5)) {
      case 0: // flip one bit
        if (!s.empty())
            s[pos] ^= static_cast<char>(1u << rng.uniformInt(8));
        break;
      case 1: // insert 1..4 bytes
        for (std::uint64_t n = 1 + rng.uniformInt(4); n > 0; n--)
            s.insert(rng.uniformInt(s.size() + 1), 1,
                     rng.chance(0.5)
                         ? kAlphabet[rng.uniformInt(sizeof kAlphabet - 1)]
                         : static_cast<char>(rng.uniformInt(256)));
        break;
      case 2: // delete 1..8 bytes
        s.erase(pos, 1 + rng.uniformInt(8));
        break;
      case 3: // truncate
        s.resize(pos);
        break;
      default: { // duplicate a range of up to 24 bytes elsewhere
        if (s.empty())
            break;
        const std::string range =
            s.substr(pos, 1 + rng.uniformInt(24));
        s.insert(rng.uniformInt(s.size() + 1), range);
        break;
      }
    }
}

/** Configure `schedule`; false if it was rejected with a fatal. */
bool
configures(const std::string &schedule)
{
    FatalTrap trap;
    try {
        failpointConfigure(schedule);
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

TEST(FailpointFuzz, MutantsAreFatalOrEchoStably)
{
    for (const char *s : kSchedules) {
        SCOPED_TRACE(s);
        ASSERT_TRUE(configures(s));
    }
    Rng rng(0xfa17f022ull);
    std::size_t armed = 0, rejected = 0;
    for (int iter = 0; iter < 50000; iter++) {
        std::string mutant =
            kSchedules[rng.uniformInt(std::size(kSchedules))];
        for (std::uint64_t m = 1 + rng.uniformInt(3); m > 0; m--)
            mutate(mutant, rng);
        if (!configures(mutant)) {
            rejected++;
            continue;
        }
        armed++;
        const std::string echo = failpointScheduleString();
        ASSERT_TRUE(configures(echo))
            << "mutant '" << mutant << "' echoes '" << echo
            << "', which does not configure";
        ASSERT_EQ(failpointScheduleString(), echo)
            << "mutant '" << mutant << "'";
    }
    failpointReset();
    // Both outcomes are common: the mutations reach the grammar, and
    // not every mutant dies at the first character.
    EXPECT_GT(armed, 1000u);
    EXPECT_GT(rejected, 10000u);
}

} // namespace
} // namespace ubik
