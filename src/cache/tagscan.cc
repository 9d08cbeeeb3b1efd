#include "cache/tagscan.hh"

#include <cstdlib>
#include <string>

#include "stats/logging.hh"

namespace wsel::tagscan
{

const char *
toString(Path path)
{
    switch (path) {
      case Path::Scalar:
        return "scalar";
      case Path::Sse2:
        return "sse2";
      case Path::Avx2:
        return "avx2";
    }
    return "scalar";
}

namespace
{

Path
widestSupported()
{
#ifdef WSEL_TAGSCAN_X86
    if (__builtin_cpu_supports("avx2"))
        return Path::Avx2;
    return Path::Sse2; // baseline on x86-64
#else
    return Path::Scalar;
#endif
}

Path
resolvePath()
{
    const char *env = std::getenv("WSEL_SIMD");
    if (!env || !*env || std::string(env) == "auto")
        return widestSupported();
    const std::string v(env);
    if (v == "scalar")
        return Path::Scalar;
#ifdef WSEL_TAGSCAN_X86
    if (v == "sse2")
        return Path::Sse2;
    if (v == "avx2") {
        if (__builtin_cpu_supports("avx2"))
            return Path::Avx2;
        warn("WSEL_SIMD=avx2 requested but the CPU lacks AVX2; "
             "using sse2");
        return Path::Sse2;
    }
#else
    if (v == "sse2" || v == "avx2") {
        warn("WSEL_SIMD=" + v +
             " is x86-64 only; using the scalar path");
        return Path::Scalar;
    }
#endif
    warn("ignoring unknown WSEL_SIMD '" + v +
         "' (want scalar|sse2|avx2|auto)");
    return widestSupported();
}

} // namespace

namespace detail
{
// Plain dynamic-initialized global: any find() call that races
// static initialization reads the zero value (Scalar), which is
// behaviour-identical, merely unvectorized.
const Path gPath = resolvePath();
} // namespace detail

Path
activePath()
{
    return detail::gPath;
}

} // namespace wsel::tagscan
