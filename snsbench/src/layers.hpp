// layers.hpp — the traced run: per-layer metrics from a span replay.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "scenario.hpp"

namespace snsbench {

/// What the untraced load of the traced run measured.
struct LayerInputs {
  double cpu_ns_per_q = 0.0;     // server CPU per completed read (saturation)
  double writes_per_read = 0.0;  // re-homings per completed read (saturation)
  double late_p99_us = 0.0;
  double gen_cpu_share = 0.0;
  std::uint64_t axfr_after_setup = 0;
  std::string out_prefix;        // <dir>/<workload>-s<seed>: spans and metric files
};

/// Replay the workload's requests through the public functions of the
/// transport, runtime, dns, server, spatial, geo and federation layers,
/// one span per call, and derive every per-layer metric. Writes
/// `<out_prefix>-spans.jsonl` and `<out_prefix>-layers.json`.
Metrics trace_layers(const Spec& spec, Fabric& fabric, const LayerInputs& in);

}  // namespace snsbench
