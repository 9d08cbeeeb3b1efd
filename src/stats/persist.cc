#include "stats/persist.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <system_error>

#include "obs/metrics.hh"
#include "stats/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>
#define WSEL_HAVE_POSIX_IO 1
#endif

namespace wsel::persist
{

namespace
{

std::mutex faultMutex;
FaultHook faultHook;
std::map<std::string, std::uint64_t> faultHits;

/** Directory containing @p path ("." when path has no directory). */
std::string
parentDir(const std::string &path)
{
    const auto pos = path.find_last_of('/');
    return pos == std::string::npos ? std::string(".")
                                    : path.substr(0, pos);
}

/** readFile(), with @p prefix at the start of every error. */
std::string
slurp(const std::string &path, const std::string &prefix)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CacheInvalid(prefix + "cannot open " + path);
    std::string data;
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
        data.append(buf, static_cast<std::size_t>(in.gcount()));
    if (in.bad())
        throw CacheInvalid(prefix + "read error on " + path);
    return data;
}

} // namespace

std::uint64_t
fnv1a(std::string_view s)
{
    return Fnv1a().update(s).digest();
}

std::string
toHex(std::uint64_t v)
{
    static const char *digits = "0123456789abcdef";
    std::string s;
    for (int i = 60; i >= 0; i -= 4)
        s += digits[(v >> i) & 0xf];
    return s;
}

void
atomicWriteFile(const std::string &path, std::string_view contents)
{
    faultPoint("atomic.begin");
#ifdef WSEL_HAVE_POSIX_IO
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        WSEL_FATAL("cannot open '" << tmp << "' for writing: "
                                   << strerror(errno));
    // A failed write or fsync (ENOSPC, EFBIG, EIO) must not leave
    // the partial temporary file behind.
    const auto fail = [&](const char *op) {
        const int e = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        WSEL_FATAL(op << " '" << tmp << "' failed: " << strerror(e));
    };
    for (std::size_t off = 0; off < contents.size();) {
        const ssize_t w = ::write(fd, contents.data() + off,
                                  contents.size() - off);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            fail("write to");
        }
        off += static_cast<std::size_t>(w);
    }
    if (::fsync(fd) != 0)
        fail("fsync");
    ::close(fd);
    faultPoint("atomic.before-rename");
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int e = errno;
        ::unlink(tmp.c_str());
        WSEL_FATAL("rename '" << tmp << "' -> '" << path
                              << "' failed: " << strerror(e));
    }
    // Persist the rename itself; best-effort (some filesystems
    // reject O_RDONLY directory fsync).
    const int dfd = ::open(parentDir(path).c_str(), O_RDONLY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
#else
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            WSEL_FATAL("cannot open '" << tmp << "' for writing");
        os.write(contents.data(),
                 static_cast<std::streamsize>(contents.size()));
        if (!os)
            WSEL_FATAL("write to '" << tmp << "' failed");
    }
    faultPoint("atomic.before-rename");
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        WSEL_FATAL("rename '" << tmp << "' -> '" << path
                              << "' failed: " << ec.message());
#endif
    faultPoint("atomic.after-rename");
}

std::string
quarantineFile(const std::string &path)
{
    std::error_code ec;
    for (int n = 0; n < 100; ++n) {
        std::string target = path + ".corrupt";
        if (n > 0)
            target += '.' + std::to_string(n);
        if (std::filesystem::exists(target, ec))
            continue;
        std::filesystem::rename(path, target, ec);
        if (ec)
            return "";
        obs::counter("persist.cache_quarantine").inc();
        return target;
    }
    return "";
}

void
quarantineArtifact(const std::string &path, std::string_view what,
                   std::string_view why, std::string_view then)
{
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return;
    const std::string moved = quarantineFile(path);
    std::string msg = std::string(what) + " " + path + " (" +
                      std::string(why) + ")";
    if (!moved.empty())
        msg += "; quarantined to " + moved;
    warn(msg + "; " + std::string(then));
}

std::string
readFile(const std::string &path)
{
    return slurp(path, "");
}

void
Writer::seal(const std::string &path)
{
    u64(fnv1a(out_));
    atomicWriteFile(path, out_);
}

Reader
Reader::open(const std::string &path, const char (&magic)[8],
             std::uint32_t version, std::string what)
{
    std::string data = slurp(path, what + ": ");
    Reader r(std::move(data), std::move(what));
    if (r.data_.size() < 8)
        r.fail("too short for a checksum");
    // Decode the trailing checksum, then confine reads to the body.
    r.pos_ = r.data_.size() - 8;
    const std::uint64_t want = r.u64();
    r.end_ = r.data_.size() - 8;
    r.pos_ = 0;
    if (fnv1a(std::string_view(r.data_.data(), r.end_)) != want)
        r.fail("checksum mismatch");
    if (std::memcmp(r.take(8), magic, 8) != 0)
        r.fail("bad magic");
    const std::uint32_t got = r.u32();
    if (got != version)
        r.fail("unsupported version " + std::to_string(got));
    return r;
}

void
ensureDirTree(const std::string &dir)
{
    if (dir.empty())
        return;
#ifdef WSEL_HAVE_POSIX_IO
    // Component-by-component mkdir, treating EEXIST as success:
    // std::filesystem::create_directories can report an error when
    // another process creates a component between its existence
    // probe and its mkdir, which matters for the shared result
    // store and cache roots (several workers start at once).
    std::size_t pos = 0;
    while (pos < dir.size()) {
        std::size_t next = dir.find('/', pos);
        if (next == std::string::npos)
            next = dir.size();
        if (next > pos) { // skip "//" and the leading "/"
            // EEXIST (lost a creation race) is success; any other
            // failure surfaces through the final stat below, which
            // carries the full path in its diagnostic.
            (void)::mkdir(dir.substr(0, next).c_str(), 0777);
        }
        pos = next + 1;
    }
    struct stat st;
    if (::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
        return;
    WSEL_FATAL("cannot create directory tree '"
               << dir << "': " << std::strerror(errno));
#else
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec && !std::filesystem::is_directory(dir))
        WSEL_FATAL("cannot create directory tree '"
                   << dir << "': " << ec.message());
#endif
}

FileLock::FileLock(const std::string &path)
{
#ifdef WSEL_HAVE_POSIX_IO
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0)
        WSEL_FATAL("cannot open lock file '"
                   << path << "': " << strerror(errno));
    while (::flock(fd_, LOCK_EX) != 0) {
        if (errno == EINTR)
            continue;
        const int e = errno;
        ::close(fd_);
        fd_ = -1;
        WSEL_FATAL("flock '" << path
                             << "' failed: " << strerror(e));
    }
#else
    (void)path;
    fd_ = 0; // no-op lock: always "held"
#endif
}

FileLock
FileLock::tryAcquire(const std::string &path)
{
    FileLock lock;
#ifdef WSEL_HAVE_POSIX_IO
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0)
        WSEL_FATAL("cannot open lock file '"
                   << path << "': " << strerror(errno));
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        ::close(fd);
        return lock;
    }
    lock.fd_ = fd;
#else
    (void)path;
    lock.fd_ = 0;
#endif
    return lock;
}

void
FileLock::release()
{
#ifdef WSEL_HAVE_POSIX_IO
    if (fd_ >= 0) {
        ::flock(fd_, LOCK_UN);
        ::close(fd_);
    }
#endif
    fd_ = -1;
}

void
setFaultHook(FaultHook hook)
{
    std::lock_guard<std::mutex> g(faultMutex);
    faultHook = std::move(hook);
}

void
resetFaultPoints()
{
    std::lock_guard<std::mutex> g(faultMutex);
    faultHits.clear();
}

std::uint64_t
faultPointHits(const char *point)
{
    std::lock_guard<std::mutex> g(faultMutex);
    const auto it = faultHits.find(point);
    return it == faultHits.end() ? 0 : it->second;
}

void
faultPoint(const char *point)
{
    FaultHook hook;
    std::uint64_t hits = 0;
    {
        std::lock_guard<std::mutex> g(faultMutex);
        if (!faultHook)
            return;
        hits = ++faultHits[point];
        hook = faultHook;
    }
    // Invoke outside the mutex: the hook may throw (simulated
    // crash) or re-enter the persistence layer.
    hook(point, hits);
}

} // namespace wsel::persist
