/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * All stochastic behaviour in ubik (interarrival times, service-time
 * draws, synthetic address streams, hash salts) flows through Rng so
 * that every experiment is reproducible from a single seed. The
 * generator is xoshiro256**, which is fast, high quality, and lets us
 * cheaply fork independent streams per component.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/log.h"

namespace ubik {

/** xoshiro256** pseudo-random generator with distribution helpers. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Fork an independent stream (seeded from this one). */
    Rng fork();

    /**
     * Deterministic, independent stream for job `job_index` under
     * `base_seed`. Unlike fork(), this never consumes shared state:
     * the stream is a pure function of (base_seed, job_index), so a
     * parallel experiment engine can hand every job its own RNG and
     * produce results that are bit-identical to the sequential order
     * no matter how jobs land on worker threads. Re-running a single
     * job index reproduces its exact sequence.
     */
    static Rng jobStream(std::uint64_t base_seed,
                         std::uint64_t job_index);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). n must be > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Uniform integer in [lo, hi]. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Exponential with the given mean (Markov interarrivals). */
    double exponential(double mean);

    /** Lognormal with the given mean and sigma of the underlying normal. */
    double lognormal(double mu, double sigma);

    /** Standard normal via Box-Muller. */
    double normal();

    /** Bernoulli trial. */
    bool chance(double p);

  private:
    std::uint64_t s_[4];
};

/**
 * Zipfian integer distribution over [0, n) with exponent theta.
 * theta < 1 uses the Gray et al. quantile approximation (O(1) setup
 * and sampling); theta >= 1, where that parameterization breaks
 * down, falls back to an exact CDF table (n is bounded in that
 * mode) searched through a guide table: a draw u starts at the first
 * CDF entry of its 1/n-wide bucket and walks to the first entry
 * >= u, which is std::lower_bound's index in about one step. Used
 * for query-popularity and hot-set address draws.
 */
class ZipfDistribution
{
  public:
    ZipfDistribution(std::uint64_t n, double theta);

    /** One draw: quantile(rng.uniform()). */
    std::uint64_t
    operator()(Rng &rng) const
    {
        return quantile(rng.uniform());
    }

    /** The rank a uniform draw u in [0, 1) maps to (panics on a u
     *  outside that range in exact-table mode). */
    std::uint64_t quantile(double u) const;

    std::uint64_t n() const { return n_; }
    double theta() const { return theta_; }

  private:
    double zeta(std::uint64_t n, double theta) const;

    /** Guide bucket of a probability: floor(p * n), as computed. */
    std::uint64_t
    bucket(double p) const
    {
        return static_cast<std::uint64_t>(p * static_cast<double>(n_));
    }

    std::uint64_t n_;
    double theta_;
    double alpha_ = 0;
    double zetan_ = 0;
    double eta_ = 0;
    double zeta2_ = 0;
    double rank1Cut_ = 0; ///< 1 + 0.5^theta: uz below it draws rank 1

    /** Exact-table mode (theta >= 0.995): the CDF, and per bucket b
     *  the number of CDF entries whose bucket is below b — none of
     *  them can be >= a draw in bucket b, so the search starts there. */
    std::vector<double> cdf_;
    std::vector<std::uint32_t> guide_;
};

/**
 * Discrete distribution over arbitrary weights (multimodal service
 * times, batch-class mixes). Sampling is O(log n) via a cumulative
 * table.
 */
class DiscreteDistribution
{
  public:
    explicit DiscreteDistribution(std::vector<double> weights);

    /** Index of the sampled bucket. */
    std::size_t operator()(Rng &rng) const;

    std::size_t size() const { return cumulative_.size(); }

  private:
    std::vector<double> cumulative_;
};

} // namespace ubik
