/**
 * @file
 * The resolved-config record and host fingerprint every result carries:
 * SIMD arm, executor shards and threads, every SUPERBNN_* variable as
 * read, the ServiceConfig the serve workload uses, compiler, NDEBUG,
 * online CPUs and the CPU model. Wall times are comparable only between
 * results whose fingerprint hashes match.
 */

#ifndef PERFBENCH_FINGERPRINT_H
#define PERFBENCH_FINGERPRINT_H

#include <cstdint>
#include <string>

#include "serve/inference_service.h"

namespace perfbench {

struct Fingerprint
{
    std::string json;       ///< one JSON object, including "hash"
    std::uint64_t hash = 0; ///< over every field that moves wall time
};

Fingerprint fingerprint(const superbnn::serve::ServiceConfig &service);

} // namespace perfbench

#endif // PERFBENCH_FINGERPRINT_H
