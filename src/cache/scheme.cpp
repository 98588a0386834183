#include "cache/scheme.h"

#include <algorithm>

#include "common/log.h"

namespace ubik {

PartitionScheme::PartitionScheme(std::unique_ptr<CacheArray> array,
                                 std::uint32_t num_partitions)
    : array_(std::move(array)), numParts_(num_partitions),
      targets_(num_partitions, 0), actual_(num_partitions, 0),
      ownerCount_(num_partitions, 0), accCount_(num_partitions, 0),
      missCount_(num_partitions, 0)
{
    ubik_assert(numParts_ >= 1);
    // Note the concrete array type once; the hot path switches on it
    // instead of paying a virtual dispatch per probe (see scheme.h).
    if (auto *z = dynamic_cast<ZCacheArray *>(array_.get())) {
        impl_ = ArrayImpl::ZCache;
        zcImpl_ = z;
    } else if (auto *s = dynamic_cast<SetAssocArray *>(array_.get())) {
        impl_ = ArrayImpl::SetAssoc;
        saImpl_ = s;
    }
}

void
PartitionScheme::setTargetSize(PartId p, std::uint64_t lines)
{
    ubik_assert(p < numParts_);
    targets_[p] = lines;
}

AccessOutcome
PartitionScheme::access(Addr addr, const AccessContext &ctx)
{
    ubik_assert(ctx.part < numParts_);
    ubik_assert(ctx.app < numParts_);
    now_++;
    accCount_[ctx.part]++;

    AccessOutcome out;
    std::int64_t slot = arrayLookup(addr);
    if (slot >= 0) {
        LineMeta &line = array_->meta(static_cast<std::uint64_t>(slot));
        out.hit = true;
        out.hitPrevReqId = line.lastReqId;
        out.hitPrevOwner = line.owner;
        onHit(static_cast<std::uint64_t>(slot), ctx);
        line.lastTouch = now_;
        if (line.owner != ctx.app) {
            ownerCount_[line.owner]--;
            ownerCount_[ctx.app]++;
            line.owner = ctx.app;
        }
        line.lastReqId = ctx.reqId;
        return out;
    }

    missCount_[ctx.part]++;
    missInstall(addr, ctx, out);
    return out;
}

void
PartitionScheme::onHit(std::uint64_t slot, const AccessContext &ctx)
{
    (void)slot;
    (void)ctx;
}

void
PartitionScheme::noteEviction(std::uint64_t slot, AccessOutcome &out)
{
    if (!array_->validAt(slot))
        return;
    const LineMeta &victim = array_->meta(slot);
    out.victimAddr = array_->addrAt(slot);
    out.victimPart = victim.part;
    ubik_assert(actual_[victim.part] > 0);
    actual_[victim.part]--;
    ubik_assert(ownerCount_[victim.owner] > 0);
    ownerCount_[victim.owner]--;
}

void
PartitionScheme::noteInstall(std::uint64_t slot, const AccessContext &ctx)
{
    LineMeta &line = array_->meta(slot);
    line.part = ctx.part;
    line.owner = ctx.app;
    line.lastTouch = now_;
    line.lastReqId = ctx.reqId;
    actual_[ctx.part]++;
    ownerCount_[ctx.app]++;
}

void
PartitionScheme::reset()
{
    array_->flush();
    now_ = 0;
    forcedEvictions_ = 0;
    for (std::uint32_t p = 0; p < numParts_; p++) {
        actual_[p] = 0;
        ownerCount_[p] = 0;
        accCount_[p] = 0;
        missCount_[p] = 0;
    }
}

SharedLru::SharedLru(std::unique_ptr<CacheArray> array,
                     std::uint32_t num_partitions)
    : PartitionScheme(std::move(array), num_partitions)
{
}

std::uint64_t
SharedLru::missInstall(Addr addr, const AccessContext &ctx,
                       AccessOutcome &out)
{
    // Globally oldest candidate; empty slots win outright. The
    // selection is fused into the walk and branch-free: the visitor
    // fires per candidate in ascending order, keeping the first empty
    // index and a running maximum of ~lastTouch over valid lines,
    // taken only when strictly greater. That picks exactly the
    // candidate the original post-walk scan did ("first empty wins,
    // else first strict minimum of lastTouch").
    constexpr std::size_t kNone = ~std::size_t(0);
    std::size_t first_empty = kNone;
    std::size_t oldest = 0;
    std::uint64_t oldest_key = 0;
    arrayVictimsVisit(addr, candScratch_,
                      [&](std::size_t i, const LineMeta &line) {
                          const bool valid = line.valid != 0;
                          first_empty =
                              std::min(first_empty, valid ? kNone : i);
                          const std::uint64_t key =
                              valid ? ~line.lastTouch : 0;
                          const bool take = key > oldest_key;
                          oldest_key = take ? key : oldest_key;
                          oldest = take ? i : oldest;
                      });
    ubik_assert(!candScratch_.empty());
    const std::size_t best = first_empty != kNone ? first_empty : oldest;

    noteEviction(candScratch_[best].slot, out);
    std::uint64_t slot = arrayInstall(addr, candScratch_, best);
    noteInstall(slot, ctx);
    return slot;
}

} // namespace ubik
