/**
 * @file
 * Distributions of per-request work (instructions), standing in for
 * the paper's real request streams.
 *
 * Figure 1b shows the five LC apps' service-time CDF shapes:
 * near-constant (masstree, moses), multi-modal (shore, specjbb), and
 * long-tailed (xapian). Service *time* in this simulator is emergent
 * (work / IPC plus cache stalls), so we model the underlying work
 * distribution and let the memory system supply the rest.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace ubik {

/** A mode of a multimodal work distribution. */
struct WorkMode
{
    double weight;     ///< relative probability
    double meanInstr;  ///< mean instructions for this mode
    double jitterFrac; ///< uniform +/- jitter around the mean
};

/** Per-request instruction-count distribution. */
class ServiceDistribution
{
  public:
    /** Fixed work per request. */
    static ServiceDistribution constant(double instr);

    /**
     * Lognormal work: tight for near-constant services (small sigma),
     * long-tailed for search-like services (large sigma).
     * @param mean_instr mean of the distribution itself
     * @param sigma sigma of the underlying normal
     */
    static ServiceDistribution lognormal(double mean_instr, double sigma);

    /** Multimodal work (e.g., OLTP transaction types). */
    static ServiceDistribution multimodal(std::vector<WorkMode> modes);

    /** Draw one request's instruction count (>= 1000). */
    double sample(Rng &rng) const;

    /** Expected instructions per request. */
    double mean() const { return mean_; }

    /**
     * Stable canonical description (kind plus every parameter, doubles
     * as exact bit patterns): equal distributions — however
     * constructed — produce equal strings, and any parameter change
     * changes the string. Used by the persistent result cache's keys.
     */
    std::string canonical() const;

    /** Scale all work by a factor (machine scaling). */
    void scale(double factor);

  private:
    enum class Kind { Constant, Lognormal, Multimodal };

    ServiceDistribution() = default;

    Kind kind_ = Kind::Constant;
    double mean_ = 0;
    double mu_ = 0;
    double sigma_ = 0;
    std::vector<WorkMode> modes_;
    /** Multimodal: picks a mode by weight, built once. */
    std::optional<DiscreteDistribution> pick_;
};

} // namespace ubik
