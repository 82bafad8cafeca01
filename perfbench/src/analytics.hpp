#pragma once
#include "common.hpp"

namespace perfbench {

/// The `analytics` workload (see analytics.cpp).
Report run_analytics(const Args& args);

}  // namespace perfbench
