/**
 * @file
 * Multiprogrammed workloads and the workload population.
 *
 * A workload is a combination of K benchmarks (with repetition,
 * order-free since cores are identical and interchangeable) out of B
 * benchmarks. The population has C(B+K-1, K) members (paper §II):
 * 253 for B=22, K=2 and 12650 for B=22, K=4.
 *
 * Large populations (4.3M workloads at 8 cores) are never
 * materialized: WorkloadCursor / WorkloadPopulation::forEach stream
 * the population in lexicographic (rank) order, and WorkloadSet
 * describes a campaign's workload list either explicitly or as a
 * rank range over a population shape.
 */

#ifndef WSEL_CORE_WORKLOAD_WORKLOAD_HH
#define WSEL_CORE_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "stats/rng.hh"

namespace wsel
{

/**
 * One workload: a sorted multiset of benchmark indices in [0, B).
 */
class Workload
{
  public:
    Workload() = default;

    /** Construct from benchmark indices (sorted internally). */
    explicit Workload(std::vector<std::uint32_t> benchmarks);

    /** Benchmark index on core @p k. */
    std::uint32_t operator[](std::size_t k) const
    {
        return benchmarks_[k];
    }

    /** Number of cores / threads. */
    std::size_t size() const { return benchmarks_.size(); }

    const std::vector<std::uint32_t> &benchmarks() const
    {
        return benchmarks_;
    }

    /** Count occurrences of benchmark @p b. */
    std::uint32_t count(std::uint32_t b) const;

    /** "b0+b3+b3+b17"-style key (also used in result caches). */
    std::string key() const;

    /** Append key() to @p out without a temporary string. */
    void keyInto(std::string &out) const;

    bool operator==(const Workload &o) const = default;
    auto operator<=>(const Workload &o) const = default;

  private:
    std::vector<std::uint32_t> benchmarks_;
};

/** Append the "b0+b3+..." key of @p benches to @p out. */
void workloadKeyInto(std::span<const std::uint32_t> benches,
                     std::string &out);

/**
 * The full population of K-combinations-with-repetition over B
 * benchmarks, with O(K log B) ranking/unranking so huge populations
 * (e.g. 8 cores: 4.3M workloads) can be sampled uniformly without
 * enumeration.
 */
class WorkloadPopulation
{
  public:
    /**
     * @param num_benchmarks B, the benchmark-suite size.
     * @param cores K, the core count.
     */
    WorkloadPopulation(std::uint32_t num_benchmarks,
                       std::uint32_t cores);

    /** Population size N = C(B+K-1, K). */
    std::uint64_t size() const { return size_; }

    std::uint32_t numBenchmarks() const { return b_; }
    std::uint32_t cores() const { return k_; }

    /** The @p index-th workload in lexicographic order. */
    Workload unrank(std::uint64_t index) const;

    /**
     * Unrank @p index into @p out (resized to K) without
     * constructing a Workload; the streaming building block.
     */
    void unrankInto(std::uint64_t index,
                    std::vector<std::uint32_t> &out) const;

    /** Lexicographic index of @p w; fatal if w is out of domain. */
    std::uint64_t rank(const Workload &w) const;

    /** Lexicographic index of a sorted benchmark multiset. */
    std::uint64_t rank(std::span<const std::uint32_t> benches) const;

    /** A uniformly random workload. */
    Workload sampleUniform(Rng &rng) const;

    /**
     * Visit ranks [first, last) in order without materializing the
     * population: fn(rank, span-of-K-sorted-benchmark-indices).
     * The span is only valid during the callback.
     */
    template <typename Fn>
    void forEach(std::uint64_t first, std::uint64_t last,
                 Fn &&fn) const;

    /** Visit the whole population in rank order. */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        forEach(0, size_, std::forward<Fn>(fn));
    }

    /**
     * Enumerate the whole population in lexicographic order; fatal
     * when the population exceeds @p limit (guards against
     * accidentally materializing the 8-core population).
     */
    std::vector<Workload> enumerateAll(
        std::uint64_t limit = 2'000'000) const;

    /**
     * How often each benchmark occurs across the whole population;
     * uniform by symmetry (paper §VI-A). Exposed for tests.
     */
    std::uint64_t occurrencesPerBenchmark() const;

  private:
    friend class WorkloadCursor;
    friend class WorkloadSet;

    void checkRange(std::uint64_t first, std::uint64_t last) const;

    std::uint32_t b_;
    std::uint32_t k_;
    std::uint64_t size_;
};

/**
 * Unranking iterator over a WorkloadPopulation: seeks to a rank in
 * O(K·B) and then steps to the lexicographic successor in amortized
 * O(1), holding only the current K-element composition.
 */
class WorkloadCursor
{
  public:
    WorkloadCursor(const WorkloadPopulation &pop,
                   std::uint64_t first_rank);

    std::uint64_t rank() const { return rank_; }
    bool atEnd() const { return rank_ >= size_; }

    /** The current sorted benchmark multiset (valid until next()). */
    std::span<const std::uint32_t> benchmarks() const
    {
        return {cur_.data(), cur_.size()};
    }

    /** Materialize the current position as a Workload. */
    Workload workload() const { return Workload(cur_); }

    /** Advance to the lexicographic successor. */
    void next();

  private:
    std::uint32_t b_ = 0;
    std::uint64_t rank_ = 0;
    std::uint64_t size_ = 0;
    std::vector<std::uint32_t> cur_;
};

template <typename Fn>
void
WorkloadPopulation::forEach(std::uint64_t first, std::uint64_t last,
                            Fn &&fn) const
{
    checkRange(first, last);
    WorkloadCursor cur(*this, first);
    for (; cur.rank() < last; cur.next())
        fn(cur.rank(), cur.benchmarks());
}

/**
 * A campaign's workload list: either an explicit list of Workload
 * objects (hand-picked sets) or a rank range / rank list over a
 * population shape (population campaigns, subsamples, and every
 * sampled campaign loaded from its campaign_v3 manifest), which
 * costs O(1) / O(n ranks) memory instead of O(n·K) Workloads.
 *
 * Implicitly constructible from std::vector<Workload> so the
 * explicit-list call sites read unchanged. operator[] returns a
 * Workload by value (materialized on demand in rank-based modes);
 * use forEach() on hot paths to stream benchmark spans with no
 * per-element allocation.
 */
class WorkloadSet
{
  public:
    WorkloadSet() = default;

    /** Explicit list (implicit: keeps old call sites compiling). */
    WorkloadSet(std::vector<Workload> list)
        : mode_(Mode::Explicit), list_(std::move(list))
    {
    }

    /** Ranks [first, last) of @p pop. */
    static WorkloadSet populationRange(const WorkloadPopulation &pop,
                                       std::uint64_t first,
                                       std::uint64_t last);

    /** The whole population of @p pop. */
    static WorkloadSet fullPopulation(const WorkloadPopulation &pop)
    {
        return populationRange(pop, 0, pop.size());
    }

    /** An explicit list of ranks of @p pop. */
    static WorkloadSet fromRanks(const WorkloadPopulation &pop,
                                 std::vector<std::uint64_t> ranks);

    std::size_t size() const;
    bool empty() const { return size() == 0; }

    /** Threads per workload (0 for an empty explicit set). */
    std::uint32_t cores() const;

    /** The @p i-th workload, materialized on demand. */
    Workload operator[](std::size_t i) const;

    /** True when backed by ranks over a population shape. */
    bool rankBased() const { return mode_ != Mode::Explicit; }

    /** True when backed by a contiguous population rank range. */
    bool isPopulationRange() const { return mode_ == Mode::Range; }

    /** The population shape (fatal unless rankBased()). */
    const WorkloadPopulation &population() const;

    /** First rank of a population range (fatal otherwise). */
    std::uint64_t firstRank() const;

    /** Population rank of element @p i (fatal unless rankBased()). */
    std::uint64_t rankAt(std::size_t i) const;

    /** Append the "b0+b3+..." key of element @p i to @p out. */
    void keyInto(std::size_t i, std::string &out) const;

    /**
     * Visit elements [first, last) in order:
     * fn(index, span-of-sorted-benchmark-indices). Streams with no
     * per-element allocation in Range mode; the span is only valid
     * during the callback.
     */
    template <typename Fn>
    void forEach(std::size_t first, std::size_t last, Fn &&fn) const;

    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        forEach(0, size(), std::forward<Fn>(fn));
    }

    /** Input iterator materializing Workloads (for range-for). */
    class const_iterator
    {
      public:
        using value_type = Workload;
        using difference_type = std::ptrdiff_t;

        const_iterator(const WorkloadSet *set, std::size_t i)
            : set_(set), i_(i)
        {
        }

        Workload operator*() const { return (*set_)[i_]; }
        const_iterator &operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const const_iterator &o) const
        {
            return i_ == o.i_;
        }

      private:
        const WorkloadSet *set_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

    /** Element-wise equality (across storage modes). */
    bool operator==(const WorkloadSet &o) const;

  private:
    enum class Mode { Explicit, Range, Ranks };

    void checkIndexRange(std::size_t first, std::size_t last) const;

    Mode mode_ = Mode::Explicit;
    std::vector<Workload> list_;
    std::optional<WorkloadPopulation> pop_;
    std::uint64_t first_ = 0;
    std::uint64_t last_ = 0;
    std::vector<std::uint64_t> ranks_;
};

template <typename Fn>
void
WorkloadSet::forEach(std::size_t first, std::size_t last,
                     Fn &&fn) const
{
    checkIndexRange(first, last);
    switch (mode_) {
      case Mode::Explicit:
        for (std::size_t i = first; i < last; ++i) {
            const auto &b = list_[i].benchmarks();
            fn(i, std::span<const std::uint32_t>(b.data(), b.size()));
        }
        break;
      case Mode::Range: {
        WorkloadCursor cur(*pop_, first_ + first);
        for (std::size_t i = first; i < last; ++i, cur.next())
            fn(i, cur.benchmarks());
        break;
      }
      case Mode::Ranks: {
        std::vector<std::uint32_t> scratch;
        for (std::size_t i = first; i < last; ++i) {
            pop_->unrankInto(ranks_[i], scratch);
            fn(i, std::span<const std::uint32_t>(scratch.data(),
                                                 scratch.size()));
        }
        break;
      }
    }
}

} // namespace wsel

#endif // WSEL_CORE_WORKLOAD_WORKLOAD_HH
