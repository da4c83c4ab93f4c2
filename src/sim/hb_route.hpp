// Re-exports the implicit HB router of core/hyper_butterfly.hpp under
// hbnet::sim, the spelling hbbench/probes.cpp uses.
#pragma once

#include "core/hyper_butterfly.hpp"

namespace hbnet::sim {

using hbnet::HbHop;
using hbnet::HbImplicitRouter;
using hbnet::HbRouteState;

}  // namespace hbnet::sim
