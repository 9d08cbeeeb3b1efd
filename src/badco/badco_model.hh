/**
 * @file
 * BADCO-style behavioural core model (Velásquez, Michaud, Seznec,
 * SAMOS 2012): an application- and core-specific model that captures
 * only the core's *external* behaviour — the stream of uncore
 * requests, how much intrinsic core time separates them, and which
 * requests depend on which.
 *
 * Construction differences vs. the original BADCO (documented in
 * DESIGN.md): the original infers dependencies by diffing two traces
 * taken with different uncore latencies; our detailed core can
 * expose its dataflow directly, so we build the model from a single
 * run against a perfect (always-hit) uncore, recording for each
 * request the most recent earlier request its µop transitively
 * depends on. Node weights are the intrinsic-cycle gaps between
 * consecutive requests in that run.
 */

#ifndef WSEL_BADCO_BADCO_MODEL_HH
#define WSEL_BADCO_BADCO_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core_config.hh"
#include "trace/benchmark_profile.hh"

namespace wsel
{

/** Kind of an uncore request carried by a node. */
enum class BadcoReqType : std::uint8_t
{
    Load,      ///< blocking demand load (data or instruction)
    Store,     ///< posted store refill
    Prefetch,  ///< L1 prefetch
    Writeback, ///< dirty L1 eviction
};

/** One uncore request attached to a node. */
struct BadcoRequest
{
    std::uint64_t vaddr = 0;
    std::uint64_t pc = 0;
    BadcoReqType type = BadcoReqType::Load;

    /**
     * For loads: index of the earlier *load* request (in model
     * order) whose data this request needs; -1 when independent.
     */
    std::int64_t dependsOn = -1;
};

/**
 * One node: a group of µops with intrinsic execution weight, ending
 * in one uncore request.
 */
struct BadcoNode
{
    /** Intrinsic core cycles consumed by this node's µops. */
    std::uint32_t weight = 0;

    /** Number of µops this node advances the program by. */
    std::uint32_t uops = 0;

    /** Position of the request's µop in the trace. */
    std::uint64_t uopSeq = 0;

    /** The uncore request issued at the end of the node. */
    BadcoRequest req;
};

/**
 * Behavioural model of one benchmark on one core configuration.
 */
struct BadcoModel
{
    std::string benchmark;

    /** µop count of the modelled trace slice. */
    std::uint64_t traceUops = 0;

    /** Total intrinsic cycles of the slice (perfect uncore). */
    std::uint64_t intrinsicCycles = 0;

    /** Nodes in program order. */
    std::vector<BadcoNode> nodes;

    /** Trailing intrinsic cycles after the last request. */
    std::uint64_t tailWeight = 0;

    /** Trailing µops after the last request. */
    std::uint64_t tailUops = 0;

    /** Count of load nodes (dependency-index domain size). */
    std::uint64_t loadCount = 0;

    /**
     * Calibrated effective out-of-order window in µops: how far a
     * BADCO machine may run past an incomplete blocking load. This
     * is the model's second-trace calibration (the original BADCO
     * also needs two traces per benchmark): it is fitted so that a
     * replay against a uniformly slow uncore reproduces the
     * detailed core's cycle count under the same slow uncore,
     * capturing the benchmark's real memory-level parallelism.
     */
    std::uint32_t window = 32;

    /**
     * @name SoA runtime view.
     * The machine's quantum loop walks one node per iteration;
     * split arrays keep that walk on a few dense streams instead of
     * striding through 48-byte BadcoNode records (uopSeq is not
     * needed at run time at all). Built by finalize(); nodes stays
     * the build/serialization format.
     */
    /** @{ */
    std::vector<std::uint32_t> nodeWeight;
    std::vector<std::uint32_t> nodeUops;
    std::vector<std::uint64_t> nodeVaddr;
    std::vector<std::uint64_t> nodePc;
    std::vector<std::uint8_t> nodeType; ///< BadcoReqType
    std::vector<std::int64_t> nodeDependsOn;
    bool finalized = false;
    /** @} */

    /**
     * Build the SoA runtime view from nodes. Idempotent; called by
     * buildBadcoModel() and load(). BadcoMachine requires it.
     */
    void finalize();

    /**
     * Write the model to @p path as a sealed file
     * (stats/persist.hh), atomically.  The body is the benchmark
     * name, the scalar fields and then every node, in declaration
     * order; the SoA view is not stored.
     */
    void save(const std::string &path) const;

    /**
     * Read a model written by save().  Any damage (truncation, a
     * flipped bit, trailing bytes, an older format) throws
     * persist::CacheInvalid.
     */
    static BadcoModel load(const std::string &path);
};

/**
 * Build a BADCO model for one benchmark by running the detailed
 * core against a perfect uncore and recording its external
 * behaviour.
 *
 * @param profile The benchmark.
 * @param core_cfg Core configuration (Table I).
 * @param target_uops Trace slice length in µops.
 * @param llc_hit_latency Perfect-uncore response latency; use the
 *        target configuration's LLC hit latency.
 * @param seed Determinism seed for the detailed run.
 */
BadcoModel buildBadcoModel(const BenchmarkProfile &profile,
                           const CoreConfig &core_cfg,
                           std::uint64_t target_uops,
                           std::uint32_t llc_hit_latency,
                           std::uint64_t seed = 12345,
                           std::uint32_t slow_extra_latency = 200);

} // namespace wsel

#endif // WSEL_BADCO_BADCO_MODEL_HH
