#pragma once
// The legacy string envelope: the exertion codec the flat wire codec
// (sorcer/codec.h) replaced, frozen as a baseline. bench_exertion's PERF-5
// marshalling table measures the flat codec against it, and the codec
// equivalence tests (tests/invoke_test.cpp) decode both to the same context.
// No call in src/ uses it.
//
// Every entry carries its full path string; series are `varint n` followed
// by 8n raw LE bytes; decode rebuilds a node-per-entry std::map exactly like
// the pre-flat ServiceContext did. Scalars are encoded as in the flat codec.

#include <cstddef>
#include <cstdint>

#include "sorcer/codec.h"
#include "sorcer/context.h"
#include "util/status.h"

namespace sensorcer::bench {

/// The legacy envelope's fixed request fields (call id + reply address +
/// signature), charged on top of the encoded context.
inline constexpr std::size_t kRequestEnvelopeBytes = 64;

void encode_context_legacy(const sorcer::ServiceContext& ctx,
                           sorcer::WireBuffer& out);
util::Status decode_context_legacy(const std::uint8_t* data, std::size_t size,
                                   sorcer::ServiceContext& into);

}  // namespace sensorcer::bench
