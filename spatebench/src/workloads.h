#ifndef SPATEBENCH_WORKLOADS_H_
#define SPATEBENCH_WORKLOADS_H_

#include "bench_common.h"

namespace spatebench {

/// One writer streams a BenchTrace-shaped trace into a default
/// SpateFramework with a short decay policy, decaying after every ingest.
RunReport RunIngest(const Options& options);

/// One closed-loop client explores a 7-day row store through an 8 MiB
/// fragment cache: Q(a,b,w), planned SQL and T1-T4.
RunReport RunExploreCold(const Options& options);

/// Three closed-loop clients against a 2-shard QueryServer whose hot set
/// fits its 64 MiB fragment caches; client 0 also writes.
RunReport RunServeHot(const Options& options);

}  // namespace spatebench

#endif  // SPATEBENCH_WORKLOADS_H_
