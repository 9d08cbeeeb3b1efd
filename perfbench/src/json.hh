/**
 * @file
 * Flat JSON object writer for perfbench's one-line results.  Keys
 * and string values are benchmark-chosen identifiers, so no escaping
 * is needed; numbers keep all 17 significant digits.
 */

#ifndef PERFBENCH_JSON_HH
#define PERFBENCH_JSON_HH

#include <cstdio>
#include <string>
#include <type_traits>

namespace perfbench
{

class Json
{
  public:
    template <typename T>
    void
    add(const std::string &key, T v)
    {
        char buf[64];
        if constexpr (std::is_same_v<T, bool>)
            std::snprintf(buf, sizeof buf, "%s", v ? "true" : "false");
        else if constexpr (std::is_floating_point_v<T>)
            std::snprintf(buf, sizeof buf, "%.17g",
                          static_cast<double>(v));
        else
            std::snprintf(buf, sizeof buf, "%llu",
                          static_cast<unsigned long long>(v));
        raw(key, buf);
    }

    void
    add(const std::string &key, const std::string &v)
    {
        raw(key, "\"" + v + "\"");
    }

    void add(const std::string &key, const char *v)
    {
        add(key, std::string(v));
    }

    std::string str() const { return "{" + body_ + "}"; }

  private:
    void
    raw(const std::string &key, const std::string &value)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + key + "\": " + value;
    }

    std::string body_;
};

} // namespace perfbench

#endif // PERFBENCH_JSON_HH
