// Offline replay of a workload's op stream as wire bytes, on one thread with
// no sockets: times RequestParser, ServerCore::Handle, ResponseAssembler,
// RequestTelemetry and ItemStore get/set per op, for the per-layer ledger.

#pragma once

#include <cstddef>
#include <cstdint>

#include "perfbench/src/spans.h"
#include "src/loadgen/op_stream.h"

namespace perfbench {

/// The tier's store size (per server) and the load generator's key prefix
/// (EngineConfig's default); the replay builds its core the same way.
inline constexpr size_t kStoreBytes = 64 * 1024 * 1024;
inline constexpr const char* kKeyPrefix = "lg:";

/// Per-op costs in nanoseconds (medians over rounds).
struct ReplayCosts {
  uint64_t ops = 0;
  double parse_ns = 0.0;      // RequestParser::Feed + Next
  double handle_ns = 0.0;     // ServerCore::Handle minus its assembler work
  double assemble_ns = 0.0;   // ResponseAssembler calls Handle makes, replayed
  double telemetry_ns = 0.0;  // Handle with RequestTelemetry minus without
  double store_get_ns = 0.0;  // ItemStore::Get per get op
  double store_set_ns = 0.0;  // ItemStore::Set per set op
};

/// Replays up to the first 100k ops of `stream` (the timed pass's stream);
/// each pass is recorded as a span under `parent` when `spans` is non-null.
ReplayCosts RunReplay(const spotcache::loadgen::OpStreamConfig& stream,
                      SpanRecorder* spans, uint64_t parent);

}  // namespace perfbench
