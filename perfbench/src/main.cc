/**
 * @file
 * perfbench: one fresh process per measurement, driven by run.py.
 *
 *   perfbench rep --workload W --seed S --dir D [--smoke 1]
 *              [--profile P] [--serial 1]
 *       set up (timed) and run the workload's campaign once into the
 *       empty dir D; print one JSON line with the timings, counts
 *       and output digest (--serial 1: the reference configuration)
 *   perfbench trace --workload W --seed S --dir D [--smoke 1]
 *              [--profile P]
 *       the traced run: per-layer metrics and self-checks as one
 *       JSON line
 *   perfbench calibrate --workload hybrid-4c --dir D --profile P
 *              [--smoke 1]
 *       write the frozen hybrid error profile to P
 *
 * Exit status is 0 only when every check inside the process passed.
 */

#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "cache/tagscan.hh"
#include "campaigns.hh"
#include "layers.hh"
#include "json.hh"

namespace
{

using namespace perfbench;

std::map<std::string, std::string>
parseArgs(int argc, char **argv)
{
    std::map<std::string, std::string> a;
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        if (!key.starts_with("--"))
            throw std::invalid_argument("bad argument " + key);
        a[key.substr(2)] = argv[i + 1];
    }
    return a;
}

std::string
get(const std::map<std::string, std::string> &a, const std::string &k,
    const std::string &def = "")
{
    const auto it = a.find(k);
    return it == a.end() ? def : it->second;
}

void
hostFacts(Json &j, const Shape &s)
{
    j.add("nproc", std::thread::hardware_concurrency());
    j.add("tagscan", wsel::tagscan::toString(wsel::tagscan::activePath()));
    j.add("build_type", PERFBENCH_BUILD_TYPE);
    j.add("uops", s.uops);
    j.add("jobs", s.jobs);
    j.add("first_rank", s.firstRank);
    j.add("rows", s.rows());
}

int
cmdRep(const Shape &s, const std::string &dir,
       const std::string &profile)
{
    Setup setup = setUp(s, dir + "/models", profile);
    const CampaignRun run = runCampaign(s, setup, dir);
    Json j;
    hostFacts(j, s);
    j.add("setup_s", setup.seconds);
    j.add("campaign_s", run.wall);
    j.add("cpu_s", run.cpu);
    j.add("cells", run.cells);
    j.add("shards", run.shards);
    j.add("escalated_rows", run.escalatedRows);
    j.add("resumed", run.resumed);
    j.add("dedup_hits", run.dedupHits);
    j.add("quarantined", run.quarantined);
    j.add("peak_rss_mib", peakRssMib());
    j.add("digest", digest(run.artifactDir, run.pairStats));
    std::printf("%s\n", j.str().c_str());
    return run.resumed == 0 && run.dedupHits == 0 &&
                   run.quarantined == 0
               ? 0
               : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2)
            throw std::invalid_argument("usage: perfbench "
                                        "rep|trace|calibrate ...");
        const std::string cmd = argv[1];
        const auto a = parseArgs(argc, argv);
        const Shape s = makeShape(
            get(a, "workload"), std::stoull(get(a, "seed", "0")),
            get(a, "smoke", "0") != "0", get(a, "serial", "0") != "0");
        const std::string dir = get(a, "dir", ".");
        const std::string profile = get(a, "profile");
        if (cmd == "rep")
            return cmdRep(s, dir, profile);
        if (cmd == "trace") {
            Json j;
            hostFacts(j, s);
            const bool ok = traceRun(s, dir, profile, j);
            std::printf("%s\n", j.str().c_str());
            return ok ? 0 : 1;
        }
        if (cmd == "calibrate") {
            calibrateProfile(s, dir + "/models", profile);
            return 0;
        }
        throw std::invalid_argument("unknown command " + cmd);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
