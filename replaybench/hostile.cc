#include "hostile.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fo/wire.h"
#include "util/rng.h"

namespace replaybench {

namespace {

// Frame magic (transport/frame.h): a junk byte pair equal to it could start
// a phantom frame header and stall the decoder waiting for its payload.
constexpr uint8_t kMagic0 = 0x4C;
constexpr uint8_t kMagic1 = 0xDF;
// Wire envelope layout (fo/wire.h): 19-byte header, 4-byte checksum.
constexpr std::size_t kWireHeader = 19;
constexpr std::size_t kWireTimestampOffset = 3;
constexpr std::size_t kChecksumSize = 4;

bool HasMagicPairFrom(const std::vector<uint8_t>& bytes, std::size_t from) {
  for (std::size_t p = from; p + 1 < bytes.size(); ++p) {
    if (bytes[p] == kMagic0 && bytes[p + 1] == kMagic1) return true;
  }
  return false;
}

std::size_t CountFor(std::size_t n, double rate) {
  return static_cast<std::size_t>(std::llround(static_cast<double>(n) * rate));
}

void Shuffle(std::vector<std::size_t>* order, ldpids::Rng& rng) {
  for (std::size_t i = order->size(); i > 1; --i) {
    std::swap((*order)[i - 1], (*order)[rng.UniformInt(i)]);
  }
}

}  // namespace

ClientFault ClientFaultFor(uint64_t seed, uint64_t round, uint64_t user) {
  const double u =
      static_cast<double>(ldpids::HashCounter(seed ^ 0xC11E, round, user) >>
                          11) *
      0x1.0p-53;
  if (u < kWireCorruptRate) return ClientFault::kWireCorrupt;
  if (u < kWireCorruptRate + kWrongTimestampRate) {
    return ClientFault::kWrongTimestamp;
  }
  return ClientFault::kNone;
}

void ApplyClientFault(ClientFault fault, std::vector<uint8_t>* packet) {
  std::vector<uint8_t>& p = *packet;
  if (fault == ClientFault::kNone) return;
  if (p.size() <= kWireHeader + kChecksumSize) {
    throw std::invalid_argument("client fault needs a wire report");
  }
  if (fault == ClientFault::kWireCorrupt) {
    p[p.size() - kChecksumSize - 1] ^= 0xFF;  // last payload byte
    return;
  }
  const uint32_t ts = ldpids::GetU32Le(p.data() + kWireTimestampOffset);
  std::vector<uint8_t> le;
  ldpids::PutU32Le(&le, ts + 1);
  std::copy(le.begin(), le.end(), p.begin() + kWireTimestampOffset);
  le.clear();
  ldpids::PutU32Le(&le, ldpids::WireChecksum(p.data(),
                                             p.size() - kChecksumSize));
  std::copy(le.begin(), le.end(), p.end() - kChecksumSize);
}

NetworkCounts& NetworkCounts::operator+=(const NetworkCounts& other) {
  frames += other.frames;
  frame_errors += other.frame_errors;
  skipped_bytes += other.skipped_bytes;
  checksum_mismatch += other.checksum_mismatch;
  duplicate_frames += other.duplicate_frames;
  dropped_frames += other.dropped_frames;
  return *this;
}

std::vector<uint8_t> BuildHostileStream(
    const std::vector<std::vector<uint8_t>>& genuine,
    const std::vector<bool>& may_copy, const std::vector<uint8_t>& marker,
    const std::vector<std::vector<uint8_t>>& stale_pool, uint64_t seed,
    NetworkCounts* counts) {
  const std::size_t n = genuine.size();
  if (n == 0 || may_copy.size() != n) {
    throw std::invalid_argument("hostile stream needs genuine frames");
  }
  ldpids::Rng rng(seed);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Shuffle(&order, rng);
  const std::size_t stragglers =
      std::clamp<std::size_t>(CountFor(n, kStragglerRate), 1, n);
  const std::size_t on_time = n - stragglers;

  // Junk goes only among the on-time frames, and duplicates copy only
  // on-time frames: the round then completes exactly on its last
  // straggler, so every junk frame is admitted or rejected before the
  // round can drain.
  std::vector<std::size_t> copyable;
  for (std::size_t k = 0; k < on_time; ++k) {
    if (may_copy[order[k]]) copyable.push_back(order[k]);
  }
  std::vector<std::vector<uint8_t>> items;
  for (std::size_t k = 0; k < on_time; ++k) items.push_back(genuine[order[k]]);
  NetworkCounts add;
  if (!copyable.empty()) {
    const std::size_t dups = CountFor(n, kDuplicateRate);
    for (std::size_t i = 0; i < dups; ++i) {
      items.push_back(genuine[copyable[rng.UniformInt(copyable.size())]]);
    }
    add.duplicate_frames += dups;
    add.frames += dups;
  }
  const std::size_t corrupt = CountFor(n, kCorruptCopyRate);
  for (std::size_t i = 0; i < corrupt; ++i) {
    // A copy whose frame checksum trailer is flipped; retry candidates
    // whose interior holds the magic pair (a phantom header).
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::vector<uint8_t> copy = genuine[rng.UniformInt(n)];
      if (copy.size() < 2) continue;
      copy[copy.size() - 1] ^= 0x01;
      if (HasMagicPairFrom(copy, 1)) continue;
      add.skipped_bytes += copy.size();
      add.checksum_mismatch += 1;
      items.push_back(std::move(copy));
      break;
    }
  }
  const std::size_t garbage = CountFor(n, kGarbageRate);
  for (std::size_t i = 0; i < garbage; ++i) {
    std::vector<uint8_t> run(1 + rng.UniformInt(16));
    for (uint8_t& b : run) {
      // 254 values: everything but the two magic bytes.
      uint64_t v = rng.UniformInt(254);
      if (v >= kMagic0) ++v;
      if (v >= kMagic1) ++v;
      b = static_cast<uint8_t>(v);
    }
    add.skipped_bytes += run.size();
    items.push_back(std::move(run));
  }
  if (!stale_pool.empty()) {
    const std::size_t stale = CountFor(n, kStaleRate);
    for (std::size_t i = 0; i < stale; ++i) {
      items.push_back(stale_pool[rng.UniformInt(stale_pool.size())]);
    }
    add.dropped_frames += stale;
    add.frames += stale;
  }
  add.frame_errors = add.skipped_bytes;
  add.frames += n + 1;  // genuine frames + marker

  std::vector<std::size_t> item_order(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) item_order[i] = i;
  Shuffle(&item_order, rng);
  std::vector<uint8_t> stream;
  for (std::size_t i : item_order) {
    stream.insert(stream.end(), items[i].begin(), items[i].end());
  }
  stream.insert(stream.end(), marker.begin(), marker.end());
  for (std::size_t k = on_time; k < n; ++k) {
    const std::vector<uint8_t>& f = genuine[order[k]];
    stream.insert(stream.end(), f.begin(), f.end());
  }
  *counts += add;
  return stream;
}

}  // namespace replaybench
