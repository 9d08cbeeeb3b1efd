/**
 * @file
 * Vectorized scans over packed 32-bit cache tags.
 *
 * PR 4 packed tags to 32 bits so a 16-way set occupies one host
 * cache line; this header turns the way-probe loop over that line
 * into a single data-parallel compare. The implementations share
 * one contract — return the lowest way index holding @p want, or
 * @p n when absent:
 *
 *  - findScalar: the reference loop, and the path on other ISAs;
 *  - findSse2 (x86-64 only): explicit 4-wide compares with a
 *    movemask + countr_zero pick.  No cache is wider than 16 ways
 *    (IL1 4, DL1 8, the LLC 16), so a set takes at most four.
 *
 * All paths are exact drop-ins: a valid tag ((lineAddr << 1) | 1)
 * appears in at most one way of a set, and for the fill path's
 * invalid-way search (want == 0) every path picks the lowest index,
 * so replacement decisions are bit-for-bit independent of the path.
 *
 * The active path is resolved once per process: WSEL_SIMD
 * (scalar | sse2 | auto) overrides, "auto" (the default) picks
 * SSE2 on x86-64 and the scalar loop elsewhere. The choice is
 * observable via the batch.simd_path gauge and microbenchmarked by
 * BM_TagCompare (docs/PERFORMANCE.md).
 */

#ifndef WSEL_CACHE_TAGSCAN_HH
#define WSEL_CACHE_TAGSCAN_HH

#include <bit>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#define WSEL_TAGSCAN_X86 1
#include <immintrin.h>
#endif

namespace wsel::tagscan
{

/** Selectable tag-compare implementations, widest last. */
enum class Path : std::uint8_t
{
    Scalar = 0,
    Sse2 = 1,
};

/** "scalar" / "sse2". */
const char *toString(Path path);

/**
 * The process-wide path: WSEL_SIMD override, else SSE2 on x86-64.
 * Resolved once; never changes afterwards.
 */
Path activePath();

/** Reference implementation: lowest way holding @p want, else n. */
inline std::uint32_t
findScalar(const std::uint32_t *tags, std::uint32_t n,
           std::uint32_t want)
{
    for (std::uint32_t w = 0; w < n; ++w) {
        if (tags[w] == want)
            return w;
    }
    return n;
}

#ifdef WSEL_TAGSCAN_X86

/** SSE2: four tags per compare (baseline on x86-64). */
inline std::uint32_t
findSse2(const std::uint32_t *tags, std::uint32_t n,
         std::uint32_t want)
{
    const __m128i pat = _mm_set1_epi32(static_cast<int>(want));
    std::uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tags + w));
        const int mask =
            _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(x, pat)));
        if (mask != 0)
            return w + static_cast<std::uint32_t>(
                           std::countr_zero(
                               static_cast<unsigned>(mask)));
    }
    for (; w < n; ++w) {
        if (tags[w] == want)
            return w;
    }
    return n;
}

#endif // WSEL_TAGSCAN_X86

/** @name Internal dispatch state (read via find()). */
/** @{ */
namespace detail
{
extern const Path gPath; ///< resolved once at first use of find()
}
/** @} */

/**
 * Dispatched scan: the active path's implementation. The dispatch
 * is a predictable branch on a constant — no indirect call, so the
 * scalar and SSE2 bodies still inline into the cache's probe sites.
 * SSE2 runs on every x86-64 host unless WSEL_SIMD says otherwise;
 * the hint keeps its body on the probe sites' fall-through path
 * (without it GCC 12 placed the scalar loop there, and a
 * population-4c cell ran about 4 % slower).
 */
inline std::uint32_t
find(const std::uint32_t *tags, std::uint32_t n, std::uint32_t want)
{
#ifdef WSEL_TAGSCAN_X86
    if (detail::gPath == Path::Sse2) [[likely]]
        return findSse2(tags, n, want);
#endif
    return findScalar(tags, n, want);
}

} // namespace wsel::tagscan

#endif // WSEL_CACHE_TAGSCAN_HH
