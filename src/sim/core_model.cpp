#include "sim/core_model.h"

#include <cmath>

#include "common/log.h"

namespace ubik {

CoreModel::CoreModel(CoreParams params, CoreTraits traits)
    : params_(params), traits_(traits)
{
    ubik_assert(traits_.apki > 0);
    ubik_assert(traits_.baseIpc > 0);
    ubik_assert(traits_.mlp >= 1.0);
    hitStall_ = hitCycles();
    missStall_ = missCycles();
}

double
CoreModel::computeIpc() const
{
    return params_.outOfOrder ? traits_.baseIpc : 1.0;
}

Cycles
CoreModel::gapCycles(double instr_per_access) const
{
    double cycles = instr_per_access / computeIpc();
    return static_cast<Cycles>(std::llround(cycles));
}

Cycles
CoreModel::hitCycles() const
{
    if (params_.outOfOrder) {
        // OOO cores overlap most of the L3 hit latency with
        // independent work; a quarter is exposed on average.
        return params_.l3Latency / 4;
    }
    return params_.l3Latency;
}

Cycles
CoreModel::missCycles() const
{
    Cycles full = params_.l3Latency + params_.memLatency;
    if (params_.outOfOrder) {
        double stall = static_cast<double>(full) / traits_.mlp;
        return static_cast<Cycles>(std::llround(stall));
    }
    return full;
}

Cycles
CoreModel::exposedMemDelay(Cycles extra) const
{
    if (extra == 0)
        return 0; // every miss under the fixed-latency memory model
    if (params_.outOfOrder) {
        double stall = static_cast<double>(extra) / traits_.mlp;
        return static_cast<Cycles>(std::llround(stall));
    }
    return extra;
}

Cycles
CoreModel::access(bool hit, double instr_per_access, Cycles extra_mem)
{
    ubik_assert(!hit || extra_mem == 0);
    if (instr_per_access != memoIpa_) {
        memoIpa_ = instr_per_access;
        memoGap_ = gapCycles(instr_per_access);
        memoInstr_ =
            static_cast<std::uint64_t>(std::llround(instr_per_access));
    }
    Cycles mem = (hit ? hitStall_ : missStall_) + extra_mem;
    Cycles total = memoGap_ + mem;

    interval_.cycles += total;
    interval_.instructions += memoInstr_;
    interval_.llcAccesses++;
    if (!hit) {
        interval_.llcMisses++;
        interval_.missStallCycles += mem;
    }
    return total;
}

Cycles
CoreModel::compute(double instructions)
{
    Cycles cycles = static_cast<Cycles>(
        std::llround(instructions / computeIpc()));
    interval_.cycles += cycles;
    interval_.instructions +=
        static_cast<std::uint64_t>(std::llround(instructions));
    return cycles;
}

IntervalCounters
CoreModel::takeInterval()
{
    IntervalCounters c = interval_;
    interval_.clear();
    return c;
}

} // namespace ubik
