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
 *  - findSse2 / findAvx2 (x86-64 only): explicit 4- and 8-wide
 *    compares with a movemask + countr_zero pick.
 *
 * All paths are exact drop-ins: a valid tag ((lineAddr << 1) | 1)
 * appears in at most one way of a set, and for the fill path's
 * invalid-way search (want == 0) every path picks the lowest index,
 * so replacement decisions are bit-for-bit independent of the path.
 *
 * The active path is resolved once per process: WSEL_SIMD
 * (scalar | sse2 | avx2 | auto) overrides, "auto" (the default)
 * picks the widest supported implementation. The choice is
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
    Avx2 = 2,
};

/** "scalar" / "sse2" / "avx2". */
const char *toString(Path path);

/**
 * The process-wide path: WSEL_SIMD override, else the widest
 * implementation this CPU supports. Resolved once; never changes
 * afterwards.
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

/**
 * AVX2: eight tags per compare — a 16-way set resolves in two
 * compares. Compiled with a target attribute so the translation
 * unit needs no global -mavx2; activePath() only selects it when
 * the CPU reports AVX2.
 */
__attribute__((target("avx2"))) inline std::uint32_t
findAvx2(const std::uint32_t *tags, std::uint32_t n,
         std::uint32_t want)
{
    const __m256i pat = _mm256_set1_epi32(static_cast<int>(want));
    std::uint32_t w = 0;
    for (; w + 8 <= n; w += 8) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + w));
        const int mask = _mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(x, pat)));
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
 * is a predictable two-branch switch on a constant — no indirect
 * call, so the scalar and SSE2 bodies still inline into the
 * cache's probe sites.
 */
inline std::uint32_t
find(const std::uint32_t *tags, std::uint32_t n, std::uint32_t want)
{
    switch (detail::gPath) {
#ifdef WSEL_TAGSCAN_X86
      case Path::Avx2:
        // The target attribute keeps findAvx2 out of line, so at a
        // 16-way set (the Table II LLC) its two 256-bit compares
        // cannot recover the call that up to four inlined 128-bit
        // compares with their early exits avoid — narrow sets take
        // the SSE2 body even when the resolved path is AVX2.
        // Identical result either way.
        if (n > 16)
            return findAvx2(tags, n, want);
        [[fallthrough]];
      case Path::Sse2:
        return findSse2(tags, n, want);
#endif
      default:
        return findScalar(tags, n, want);
    }
}

} // namespace wsel::tagscan

#endif // WSEL_CACHE_TAGSCAN_HH
