#pragma once
// The zero-copy wire path: flat binary exertion codec, interned context
// paths, arena-backed intern storage and recycled payload buffers.
//
// Every S2S call goes through sorcer/invoke, which makes the exertion
// envelope the system-wide constant factor. The legacy envelope (the size
// ServiceContext::wire_bytes() models) re-encodes every slash-separated path
// as a full string on every hop and rebuilds a node-per-entry map on every
// decode. The flat codec
// replaces that with small parallel records:
//
//   [varint name_len][name bytes]
//   [varint entry_count]
//   per entry, in sorted path order:
//     [varint key = id << 1 | definition]    — interned path id
//     [definition only: varint len, bytes]   — first use of a path on this
//                                              directed endpoint pair
//     [u8 meta = type_tag | direction << 4]
//     [value payload]                        — type-tagged column encoding:
//       double: 8 raw LE bytes     int64: zigzag varint   bool: 1 byte
//       string: varint len + bytes
//       series: varint n + u8 mode + body, the mode picked from the data:
//               delta-of-delta integers (exact integers within +-2^53),
//               Gorilla XOR floats, or 8n raw LE bytes whenever packing
//               would not be smaller (util/gorilla.h; grammar in codec.cpp)
//
// Path interning is per directed endpoint pair (PathInternTable): the
// encoder assigns dense ids and emits the literal inline exactly once; the
// decoder learns id → path from the stream, so no out-of-band negotiation is
// needed and a cold table degrades gracefully to literal strings. Decoding
// reloads the target ServiceContext in place (reload_begin/slot/end), so a
// steady-state request/response cycle reuses every buffer it touched on the
// previous call: encode buffers come from a BufferPool, path bytes live in
// the table's ContextArena, and entry storage stays inside the exertion's
// own context.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sorcer/context.h"
#include "util/ids.h"
#include "util/status.h"

namespace sensorcer::sorcer {

/// Serialized payload bytes. Pooled (BufferPool) on the wire path.
using WireBuffer = std::vector<std::uint8_t>;

/// Bump allocator for codec-adjacent variable-length storage (interned path
/// literals, decode scratch) plus a free list of ServiceContext shells whose
/// entry capacity survives reuse. Blocks are never freed individually: the
/// arena owns them until it is destroyed, so views handed out by store()
/// stay stable for the arena's lifetime. Each wire endpoint pair owns its
/// arena through its intern table — dropping the peer drops the storage
/// wholesale, which is the only deallocation the steady state ever does.
class ContextArena {
 public:
  explicit ContextArena(std::size_t block_bytes = 4096)
      : block_bytes_(block_bytes ? block_bytes : 64) {}

  /// Copy `s` into arena storage; the returned view is stable until the
  /// arena dies.
  std::string_view store(std::string_view s);

  /// Bump-allocate `n` bytes (8-byte aligned).
  char* alloc(std::size_t n);

  /// A recycled context shell: cleared, entry capacity retained.
  ServiceContext acquire();
  void release(ServiceContext&& ctx);

  [[nodiscard]] std::size_t bytes_allocated() const { return total_; }
  [[nodiscard]] std::size_t retained_contexts() const { return free_.size(); }

 private:
  std::size_t block_bytes_;
  std::size_t used_ = 0;    // bytes used in the current block
  std::size_t total_ = 0;   // bytes handed out over the arena's lifetime
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::vector<ServiceContext> free_;
};

/// Dense path-string interning for one *directed* endpoint pair. The same
/// object serves whichever role its side plays: id_for() on the encoder,
/// define()/lookup() on the decoder. Ids are assigned in first-use order on
/// the encoding side and learned from inline definitions on the decoding
/// side, so both tables agree by construction. Literal bytes live in the
/// table's arena; lookups return views into it.
class PathInternTable {
 public:
  /// Encoder side: the id for `path`. `fresh` is set when this is the first
  /// use — the caller must emit an inline definition record.
  std::uint32_t id_for(std::string_view path, bool& fresh);

  /// Decoder side: learn `id` → `path` (idempotent for replays).
  void define(std::uint32_t id, std::string_view path);

  /// Decoder side: the interned path, or empty view when unknown.
  [[nodiscard]] std::string_view lookup(std::uint32_t id) const;

  /// Loss recovery, encoder side: definitions ride only the first message
  /// that uses a path, so a dropped message strands the decoder behind this
  /// table forever. reset() forgets every assignment and advances the
  /// stream epoch — the next encode re-defines all paths inline and the
  /// decoder adopts the fresh stream by its higher epoch.
  void reset();
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

  /// Decoder side: align with the epoch stamped on an incoming encoding.
  /// A newer epoch clears learned mappings (the encoder restarted the
  /// stream); an older one marks a stale in-flight message whose ids no
  /// longer mean anything.
  enum class Adopt { kCurrent, kAdopted, kStale };
  Adopt adopt_epoch(std::uint32_t epoch);

  [[nodiscard]] std::size_t size() const { return by_id_.size(); }
  [[nodiscard]] const ContextArena& arena() const { return arena_; }

 private:
  ContextArena arena_;
  std::unordered_map<std::string_view, std::uint32_t> ids_;
  std::vector<std::string_view> by_id_;
  std::uint32_t epoch_ = 0;
};

/// Flat binary codec. encode appends to `out` (cleared first); decode
/// reloads `into` in place, reusing its storage.
void encode_context(const ServiceContext& ctx, PathInternTable& interner,
                    WireBuffer& out);
util::Status decode_context(const std::uint8_t* data, std::size_t size,
                            PathInternTable& interner, ServiceContext& into);

/// The legacy string envelope (what PR 3 modeled with wire_bytes() + a
/// 64-byte envelope): full path strings on every entry, raw 8-byte series
/// elements, and a decode that rebuilds a node-per-entry std::map exactly
/// like the pre-flat ServiceContext did. Kept as the frozen equivalence
/// baseline for tests and the bench_exertion marshalling micro-table.
void encode_context_legacy(const ServiceContext& ctx, WireBuffer& out);
util::Status decode_context_legacy(const std::uint8_t* data, std::size_t size,
                                   ServiceContext& into);

/// Thread-safe recycling pool for wire payload buffers. acquire() hands out
/// a cleared buffer whose capacity survives round trips: the handle's
/// deleter returns the buffer to the pool (up to `max_retained`), or frees
/// it if the pool died first. invoke.pool_acquires / invoke.pool_reuse
/// count cold and recycled acquisitions.
class BufferPool : public std::enable_shared_from_this<BufferPool> {
 public:
  using Handle = std::shared_ptr<WireBuffer>;

  static std::shared_ptr<BufferPool> make(std::size_t max_retained = 64);

  Handle acquire();

  [[nodiscard]] std::size_t retained() const;

 private:
  explicit BufferPool(std::size_t max_retained)
      : max_retained_(max_retained) {}

  void give_back(std::unique_ptr<WireBuffer> buf);

  mutable std::mutex mu_;
  std::size_t max_retained_;
  std::vector<std::unique_ptr<WireBuffer>> free_;
};

/// The per-endpoint codec state a wire peer (RemoteInvoker, ServiceProvider)
/// keeps: one intern table per directed pair (encode keyed by destination,
/// decode keyed by source) and the payload-buffer pool. Tables live as long
/// as the endpoint, which is what keeps interning warm across calls.
struct WireCodecState {
  std::shared_ptr<BufferPool> buffers = BufferPool::make();
  std::unordered_map<util::Uuid, PathInternTable> encode;
  std::unordered_map<util::Uuid, PathInternTable> decode;
};

}  // namespace sensorcer::sorcer
