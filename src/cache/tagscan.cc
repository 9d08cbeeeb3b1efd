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
    }
    return "scalar";
}

namespace
{

Path
widestSupported()
{
#ifdef WSEL_TAGSCAN_X86
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
#else
    if (v == "sse2") {
        warn("WSEL_SIMD=" + v +
             " is x86-64 only; using the scalar path");
        return Path::Scalar;
    }
#endif
    warn("ignoring unknown WSEL_SIMD '" + v +
         "' (want scalar|sse2|auto)");
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
