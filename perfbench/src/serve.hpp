#pragma once
#include "common.hpp"

namespace perfbench {

/// The `serve_read` (rw = false) and `serve_rw` (rw = true) workloads
/// (see serve.cpp).
Report run_serve(const Args& args, bool rw);

}  // namespace perfbench
