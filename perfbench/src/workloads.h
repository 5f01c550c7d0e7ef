// The four perfbench workloads. Each fills `report` with the end-to-end
// metrics (args.trace == false) or the per-layer metrics (args.trace ==
// true), and records its output checks in it.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunNytimesIterate(const Args& args, Report& report);
void RunPubmedGrid8(const Args& args, Report& report);
void RunServePublish(const Args& args, Report& report);
void RunDist2w(const Args& args, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
