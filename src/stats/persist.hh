/**
 * @file
 * Crash-safe persistence primitives shared by every on-disk cache
 * writer (campaign_v3 directories, BADCO model binaries):
 * atomic file replacement, advisory file locking, a streaming
 * checksum, the sealed-file codec of the binary artifacts,
 * corrupt-artifact quarantine, and test-only fault injection
 * kill-points.
 *
 * The design goal (see docs/ROBUSTNESS.md) is that a reader never
 * observes a half-written cache file: writers prepare the full
 * contents, write them to a temporary file in the same directory,
 * fsync, and atomically rename over the destination.  Concurrent
 * processes sharing a cache directory serialize on an advisory
 * lock file.  Artifacts that fail validation are renamed to
 * `<name>.corrupt[.N]` (never deleted) so they can be inspected.
 */

#ifndef WSEL_STATS_PERSIST_HH
#define WSEL_STATS_PERSIST_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace wsel::persist
{

/**
 * Thrown when a *cached* artifact fails validation (truncated,
 * checksum mismatch, version skew, malformed field).  Distinct from
 * FatalError so cache readers can quarantine and regenerate instead
 * of aborting; strict readers convert it to WSEL_FATAL.
 */
class CacheInvalid : public std::runtime_error
{
  public:
    explicit CacheInvalid(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Streaming FNV-1a 64-bit hash (checksums and fingerprints). */
class Fnv1a
{
  public:
    Fnv1a &
    update(const void *data, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
        return *this;
    }

    Fnv1a &
    update(std::string_view s)
    {
        return update(s.data(), s.size());
    }

    Fnv1a &
    updateU64(std::uint64_t v)
    {
        // Byte-by-byte in a fixed order so the digest is
        // endianness-independent.
        for (int i = 0; i < 8; ++i) {
            const unsigned char b =
                static_cast<unsigned char>(v >> (8 * i));
            update(&b, 1);
        }
        return *this;
    }

    std::uint64_t digest() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** One-shot FNV-1a of a byte string. */
std::uint64_t fnv1a(std::string_view s);

/** Lower-case hex rendering of a 64-bit value (no 0x prefix). */
std::string toHex(std::uint64_t v);

/**
 * Atomically replace @p path with @p contents: write a temporary
 * file in the same directory, fsync it, and rename it over the
 * destination (then fsync the directory).  A crash at any point
 * leaves either the old file or the new file, never a mix.
 * WSEL_FATAL on I/O errors, after removing the temporary file.
 *
 * Kill-points: "atomic.begin", "atomic.before-rename",
 * "atomic.after-rename".
 */
void atomicWriteFile(const std::string &path,
                     std::string_view contents);

/**
 * Rename a corrupt cache artifact (a file or a directory) out of
 * the way, to the first free name of `<path>.corrupt`,
 * `<path>.corrupt.1` ... `<path>.corrupt.99`.  An earlier
 * quarantined copy is never replaced: when every name is taken the
 * artifact stays where it is.
 *
 * @return The new path, or "" when no name was free or the rename
 *         failed.
 */
std::string quarantineFile(const std::string &path);

/**
 * Quarantine a damaged or stale artifact and log the one standard
 * warning, "<what> <path> (<why>); quarantined to <new>; <then>".
 * A path that does not exist is not damage: nothing is moved or
 * logged.
 */
void quarantineArtifact(const std::string &path, std::string_view what,
                        std::string_view why, std::string_view then);

/**
 * The whole contents of @p path.  Throws CacheInvalid naming the
 * path when it cannot be opened or read.
 */
std::string readFile(const std::string &path);

/**
 * Sealed files: the one frame shared by every checksummed binary
 * artifact (the campaign_v3 manifest and shards, the adaptive
 * batches and decision, and the error profile, escalation record,
 * fidelity batches and hybrid report):
 *
 *     magic[8] | version u32 | body | FNV-1a u64 of all before it
 *
 * Integers are little-endian, a double is its IEEE-754 bit pattern
 * as a u64, and a string is a u32 byte length followed by the
 * bytes.  A format is then only its schema: the magic, the version
 * and the order of body fields.
 *
 * Writer builds the file in memory and seal() publishes it with
 * atomicWriteFile.  Reader::open() loads a file and checks the
 * checksum, then the magic, then the version, before any body
 * field is decoded; every body read is bounds-checked.  A sealed
 * file is untrusted disk input (truncation, bit rot, a hostile
 * write), so every damage a reader can detect surfaces as
 * CacheInvalid, and callers quarantine and regenerate.
 *
 * The same two classes are the codec of bare bodies with no frame
 * at all (the serve wire messages): a Writer built without a magic
 * hands its bytes over with take(), and a Reader built on a body
 * in memory decodes it with the same bounds checks.
 */
class Writer
{
  public:
    /** A bare body: no header, and take() instead of seal(). */
    Writer() = default;

    /** Start a file; @p body_bytes is a capacity hint. */
    Writer(const char (&magic)[8], std::uint32_t version,
           std::size_t body_bytes = 0)
    {
        out_.reserve(8 + 4 + body_bytes + 8);
        out_.append(magic, 8);
        u32(version);
    }

    void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v) { le(v, 4); }
    void u64(std::uint64_t v) { le(v, 8); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(std::string_view s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        out_.append(s);
    }

    /** Raw bytes, no length prefix. */
    void
    bytes(const void *data, std::size_t n)
    {
        out_.append(static_cast<const char *>(data), n);
    }

    /** A run of doubles, no length prefix (one memcpy on LE hosts). */
    void
    f64s(std::span<const double> v)
    {
        if constexpr (std::endian::native == std::endian::little) {
            bytes(v.data(), v.size_bytes());
        } else {
            for (double d : v)
                f64(d);
        }
    }

    /** Append the checksum and atomically write @p path.  Once. */
    void seal(const std::string &path);

    /** The bytes written so far, moved out (bare bodies). */
    std::string take() { return std::move(out_); }

  private:
    void
    le(std::uint64_t v, int n)
    {
        for (int i = 0; i < n; ++i)
            out_.push_back(static_cast<char>(v >> (8 * i)));
    }

    std::string out_;
};

/** Bounds-checked decoder of one sealed file (see Writer). */
class Reader
{
  public:
    /**
     * Raises the error of a failed read: receives "<what>: <why>"
     * and throws.  The default raise throws CacheInvalid.
     */
    using Raise = void (*)(const std::string &msg);

    /**
     * Decode @p body, held in memory: no header, no checksum, and
     * every failed read goes to @p raise.
     */
    Reader(std::string body, std::string what, Raise raise = nullptr)
        : data_(std::move(body)), what_(std::move(what)),
          raise_(raise), end_(data_.size())
    {}

    /**
     * Load @p path and check its checksum, magic and version.
     * @p what names the artifact at the start of every error
     * message ("campaign_v3 manifest").
     */
    static Reader open(const std::string &path,
                       const char (&magic)[8], std::uint32_t version,
                       std::string what);

    std::uint8_t u8() { return static_cast<std::uint8_t>(*take(1)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
    std::uint64_t u64() { return le(8); }
    double f64() { return std::bit_cast<double>(u64()); }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (n > remaining())
            fail("truncated string");
        return std::string(take(n), n);
    }

    /** Raw bytes, no length prefix. */
    void
    bytes(void *out, std::size_t n)
    {
        const char *p = take(n);
        if (n != 0) // an empty vector's data() may be null
            std::memcpy(out, p, n);
    }

    /** A run of doubles, no length prefix (one memcpy on LE hosts). */
    void
    f64s(std::span<double> out)
    {
        if constexpr (std::endian::native == std::endian::little) {
            bytes(out.data(), out.size_bytes());
        } else {
            for (double &d : out)
                d = f64();
        }
    }

    /**
     * @p v, after checking it is at most @p max.  Bound every
     * count read from disk this way before it drives an allocation
     * or a multiplication, so a damaged count is CacheInvalid, not
     * a giant reserve() or an overflowed size.
     */
    template <class T>
    T
    count(T v, std::uint64_t max, const char *field) const
    {
        if (static_cast<std::uint64_t>(v) > max)
            fail(std::string("implausible ") + field + " " +
                 std::to_string(v) + " (max " + std::to_string(max) +
                 ")");
        return v;
    }

    /** Body bytes not yet decoded. */
    std::size_t remaining() const { return end_ - pos_; }

    /** CacheInvalid unless the body was decoded exactly. */
    void
    expectEnd() const
    {
        if (pos_ != end_)
            fail("trailing bytes");
    }

    /** Raise "<what>: <why>" (CacheInvalid by default). */
    [[noreturn]] void
    fail(const std::string &why) const
    {
        const std::string msg = what_ + ": " + why;
        if (raise_)
            raise_(msg);
        throw CacheInvalid(msg);
    }

  private:
    const char *
    take(std::size_t n)
    {
        if (n > remaining())
            fail("truncated");
        const char *p = data_.data() + pos_;
        pos_ += n;
        return p;
    }

    std::uint64_t
    le(int n)
    {
        const auto *b =
            reinterpret_cast<const unsigned char *>(take(n));
        std::uint64_t v = 0;
        for (int i = 0; i < n; ++i)
            v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return v;
    }

    std::string data_;
    std::string what_;
    Raise raise_ = nullptr;
    std::size_t end_ = 0; ///< end of the body (start of a checksum)
    std::size_t pos_ = 0;
};

/**
 * Create @p dir and every missing parent, tolerating concurrent
 * creation: when several processes race to create the same tree
 * (e.g. the shared result-store root, or .wsel_cache on first
 * use), every one of them succeeds.  Unlike
 * std::filesystem::create_directories, an EEXIST from a component
 * that appeared between our existence check and our mkdir is
 * treated as success, not an error.  WSEL_FATAL when the tree
 * cannot be created (permission, ENOSPC, or a non-directory in the
 * way).
 */
void ensureDirTree(const std::string &dir);

/**
 * RAII advisory file lock (POSIX flock) so concurrent processes
 * sharing a cache directory cannot interleave produce/save cycles.
 * The lock file itself is left in place (removing it would race
 * with other lockers).  On platforms without flock this degrades to
 * a no-op lock that always succeeds.
 */
class FileLock
{
  public:
    FileLock() = default;

    /** Blocking acquire; WSEL_FATAL when the file cannot open. */
    explicit FileLock(const std::string &path);

    /** Non-blocking acquire; `held()` is false on contention. */
    static FileLock tryAcquire(const std::string &path);

    ~FileLock() { release(); }

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    FileLock(FileLock &&other) noexcept { *this = std::move(other); }

    FileLock &
    operator=(FileLock &&other) noexcept
    {
        if (this != &other) {
            release();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }

    bool held() const { return fd_ >= 0; }

    /** Unlock and close; idempotent. */
    void release();

  private:
    int fd_ = -1;
};

/**
 * Test-only fault injection.  Persistence code calls
 * faultPoint("name") at each kill-point; when a hook is installed
 * it receives the point name and the 1-based hit count for that
 * point and may throw to simulate a crash.  No hook installed
 * (production) makes faultPoint a cheap no-op.
 */
using FaultHook =
    std::function<void(const char *point, std::uint64_t hits)>;

/** Install (or with nullptr remove) the global fault hook. */
void setFaultHook(FaultHook hook);

/** Reset all per-point hit counters. */
void resetFaultPoints();

/** Hits recorded for @p point since the last reset. */
std::uint64_t faultPointHits(const char *point);

/** Record a hit on @p point and invoke the hook, if any. */
void faultPoint(const char *point);

} // namespace wsel::persist

#endif // WSEL_STATS_PERSIST_HH
