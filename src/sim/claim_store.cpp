#include "sim/claim_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/hex.h"
#include "common/log.h"
#include "common/retry.h"

namespace ubik {

namespace {

namespace fs = std::filesystem;

std::uint64_t
fnvString(const std::string &s)
{
    return fnv1a64Bytes(
        kFnvOffsetBasis,
        reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
}

/** Keep owner ids filesystem-safe: they name tombstone files. */
std::string
sanitizeOwner(std::string owner)
{
    for (char &c : owner) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        if (!ok)
            c = '_';
    }
    return owner.empty() ? std::string("anon") : owner;
}

double
ageSec(fs::file_time_type mtime)
{
    return std::chrono::duration<double>(
               fs::file_time_type::clock::now() - mtime)
        .count();
}

} // namespace

ClaimStore::ClaimStore(const std::string &cache_dir, std::string owner,
                       double ttl_sec)
    : cacheDir_(cache_dir), dir_(cache_dir + "/" + kSubdir),
      owner_(sanitizeOwner(std::move(owner))), ttlSec_(ttl_sec)
{
    if (ttlSec_ <= 0)
        fatal("claim store: lease TTL must be > 0s (got %f)", ttlSec_);
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (!fs::is_directory(dir_)) {
        // Claims only deduplicate work across fleet workers; a worker
        // that cannot reach them degrades to solo execution instead of
        // dying (parallel_sweep.cpp checks usable()).
        warn("claim store: cannot create '%s' (%s); degrading to solo "
             "execution",
             dir_.c_str(), ec.message().c_str());
        usable_.store(false, std::memory_order_relaxed);
    }
}

std::string
ClaimStore::leasePath(const std::string &key) const
{
    // Two independent 64-bit FNV streams: filenames must be
    // filesystem-safe, and 128 bits keeps accidental collision
    // (which would only serialize two unrelated jobs, never corrupt
    // a result) out of reach for any practical sweep size.
    return dir_ + "/" + hex64(fnvString(key)) +
           hex64(fnvString(key + "#2")) + ".lease";
}

bool
ClaimStore::tryAcquire(const std::string &key)
{
    if (!usable())
        return false;
    std::string path = leasePath(key);
    int fd = -1;
    RetryBackoff retry(0xc1a13ull, fnvString(key));
    for (;;) {
        FailpointHit hit = failpointEval("claim.create");
        if (hit.kind == FailpointHit::Kind::Err) {
            errno = hit.err;
        } else {
            fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY,
                        0644);
        }
        if (fd >= 0 || errno == EEXIST || !retry.next())
            break;
    }
    if (fd < 0) {
        if (errno != EEXIST) {
            // Persistent real I/O errors mean the claims dir is gone
            // or broken; mark the store unusable so the fleet sweep can
            // fall back to solo execution rather than hot-looping on
            // "claimable but unclaimable" keys.
            if (!createWarned_.exchange(true))
                warn("claim store: cannot create lease %s (%s); "
                     "degrading to solo execution",
                     path.c_str(), std::strerror(errno));
            usable_.store(false, std::memory_order_relaxed);
        }
        return false;
    }
    // Contents are for inspection (leases(), `ubik_run
    // --fleet-status`); existence + mtime are the protocol.
    std::string body = owner_ + " " + key + "\n";
    ssize_t unused = ::write(fd, body.data(), body.size());
    (void)unused;
    ::close(fd);
    std::lock_guard<std::mutex> lock(mu_);
    held_.insert(path);
    return true;
}

void
ClaimStore::release(const std::string &key)
{
    std::string path = leasePath(key);
    {
        std::lock_guard<std::mutex> lock(mu_);
        held_.erase(path);
    }
    // ENOENT is fine: a peer that presumed us dead broke the lease;
    // the recompute it triggers is a duplicate of an identical value.
    // An injected/real remove failure leaves the lease behind, where
    // it expires after the TTL and peers break it — release is
    // best-effort by design.
    if (failpointEval("claim.release").kind ==
        FailpointHit::Kind::Err)
        return;
    std::error_code ec;
    fs::remove(path, ec);
}

void
ClaimStore::heartbeatAll()
{
    std::vector<std::string> mine;
    {
        std::lock_guard<std::mutex> lock(mu_);
        mine.assign(held_.begin(), held_.end());
    }
    for (const std::string &path : mine) {
        std::error_code ec;
        FailpointHit hit = failpointEval("claim.heartbeat");
        if (hit.kind == FailpointHit::Kind::Err)
            ec = std::error_code(hit.err, std::generic_category());
        else
            fs::last_write_time(path,
                                fs::file_time_type::clock::now(), ec);
        if (!ec)
            continue;
        // The heartbeat cannot be written (claims dir vanished, the
        // lease was broken under us, or an I/O error). Voluntarily
        // release: a lease we cannot keep fresh would look dead to
        // peers after the TTL anyway, so dropping it now lets them
        // reclaim early. The in-flight work still completes and
        // publishes — the worst case is one duplicate compute of an
        // identical value.
        {
            std::lock_guard<std::mutex> lock(mu_);
            held_.erase(path);
        }
        std::error_code rec;
        fs::remove(path, rec);
        hbReleases_.fetch_add(1, std::memory_order_relaxed);
        if (!hbWarned_.exchange(true))
            warn("claim store: heartbeat failed on %s (%s); lease "
                 "voluntarily released so peers may reclaim it",
                 path.c_str(), ec.message().c_str());
    }
}

bool
ClaimStore::staleAt(const std::string &path) const
{
    std::error_code ec;
    fs::file_time_type mtime = fs::last_write_time(path, ec);
    if (ec)
        return false; // absent: nothing to break
    return ageSec(mtime) > ttlSec_;
}

ClaimStore::Break
ClaimStore::breakStale(const std::string &key)
{
    std::string path = leasePath(key);
    std::error_code ec;
    fs::file_time_type mtime = fs::last_write_time(path, ec);
    if (ec)
        return Break::Absent;
    if (ageSec(mtime) <= ttlSec_)
        return Break::Live;
    // An injected break failure reads as "not claimable right now";
    // the caller's poll loop simply retries later, so liveness holds.
    if (failpointEval("claim.break").kind == FailpointHit::Kind::Err)
        return Break::Live;
    // Atomic rename to a per-breaker tombstone: of N racing breakers
    // exactly one wins the rename; losers see ENOENT, which means
    // "someone broke it" — equally claimable.
    std::string tomb = path + ".rip-" + owner_;
    if (std::rename(path.c_str(), tomb.c_str()) == 0) {
        fs::remove(tomb, ec);
        return Break::Broken;
    }
    return errno == ENOENT ? Break::Absent : Break::Live;
}

std::uint64_t
ClaimStore::gcStale()
{
    std::uint64_t reclaimed = 0;
    for (const Lease &l : leases(cacheDir_)) {
        if (!staleAt(l.path))
            continue;
        std::string tomb = l.path + ".rip-" + owner_;
        if (std::rename(l.path.c_str(), tomb.c_str()) == 0) {
            std::error_code rec;
            fs::remove(tomb, rec);
            reclaimed++;
        }
    }
    return reclaimed;
}

std::vector<ClaimStore::Lease>
ClaimStore::leases(const std::string &cache_dir)
{
    std::vector<Lease> out;
    std::error_code ec;
    fs::directory_iterator it(cache_dir + "/" + kSubdir, ec), end;
    for (; !ec && it != end; it.increment(ec)) {
        Lease l;
        l.path = it->path().string();
        if (l.path.size() < 6 ||
            l.path.compare(l.path.size() - 6, 6, ".lease") != 0)
            continue;
        // The payload tryAcquire writes: "<owner> <key>\n". Owners
        // are sanitized, so the first space ends the owner.
        std::ifstream in(l.path);
        std::string line;
        if (std::getline(in, line)) {
            std::size_t sp = line.find(' ');
            if (sp != std::string::npos) {
                l.owner = line.substr(0, sp);
                l.key = line.substr(sp + 1);
            }
        }
        out.push_back(std::move(l));
    }
    return out;
}

std::vector<std::string>
ClaimStore::held() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<std::string>(held_.begin(), held_.end());
}

std::string
ClaimStore::defaultOwner()
{
    char host[128] = "host";
    if (::gethostname(host, sizeof(host)) != 0)
        std::snprintf(host, sizeof(host), "host");
    host[sizeof(host) - 1] = '\0';
    return std::string(host) + "-" +
           std::to_string(static_cast<long>(::getpid()));
}

} // namespace ubik
