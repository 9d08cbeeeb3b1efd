/**
 * @file
 * The traced run: per-layer metrics of one workload, measured from
 * the benchmark's own calls into each layer's public functions.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>

#include "campaigns.hh"
#include "json.hh"

namespace perfbench
{

/**
 * Run workload @p s untraced once, then traced, then the isolated
 * layer probes, all inside the empty dir @p dir.  Adds every
 * per-layer metric and the self-check verdicts to @p out; returns
 * true when every self-check passed.
 */
bool traceRun(const Shape &s, const std::string &dir,
              const std::string &profile, Json &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
