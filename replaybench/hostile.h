// Hostile traffic for the bd-grr-hostile workload.
//
// Two groups of faults, kept apart because the server accounts for them in
// different layers:
//
//   * Client faults are wrong reports a device really sent: a payload
//     corrupted on the device (wire checksum fails) or a report stamped with
//     the wrong timestamp. They replace that user's genuine report, the
//     reference session ingests them too, and the end-of-round marker
//     counts them.
//   * Network faults happen between the devices and the collector and are
//     not in the marker: exact duplicate frames, copies whose frame
//     checksum is corrupted, garbage bytes between frames, stale replays of
//     rounds the collector already closed, and a shuffled round whose last
//     genuine frames straggle in after the marker.
//
// The generator returns the exact counters the collector must report for
// the stream it built; the benchmark compares them with the decoder,
// RoundBuffer and ingest counters after every replay.
#ifndef REPLAYBENCH_HOSTILE_H_
#define REPLAYBENCH_HOSTILE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace replaybench {

enum class ClientFault : uint8_t { kNone = 0, kWireCorrupt, kWrongTimestamp };

// Share of reports hit by each client fault.
inline constexpr double kWireCorruptRate = 0.03;
inline constexpr double kWrongTimestampRate = 0.02;

// Deterministic per (seed, round, user).
ClientFault ClientFaultFor(uint64_t seed, uint64_t round, uint64_t user);

// Rewrites an encoded wire report in place: kWireCorrupt flips a payload
// byte (the wire checksum then fails; the nonce stays readable), and
// kWrongTimestamp moves the report to the next timestamp with a valid
// checksum.
void ApplyClientFault(ClientFault fault, std::vector<uint8_t>* packet);

// Expected collector counters for a generated stream.
struct NetworkCounts {
  uint64_t frames = 0;             // well-formed frames the decoder emits
  uint64_t frame_errors = 0;       // decoder resync skips (one per byte)
  uint64_t skipped_bytes = 0;
  uint64_t checksum_mismatch = 0;  // corrupted copies
  uint64_t duplicate_frames = 0;   // RoundBuffer duplicates == ingest dups
  uint64_t dropped_frames = 0;     // stale replays of closed rounds
  NetworkCounts& operator+=(const NetworkCounts& other);
  bool operator==(const NetworkCounts& other) const = default;
};

// Network-fault rates, as shares of the round's genuine frames.
inline constexpr double kDuplicateRate = 0.04;
inline constexpr double kCorruptCopyRate = 0.02;
inline constexpr double kGarbageRate = 0.02;    // runs of 1..16 bytes
inline constexpr double kStaleRate = 0.02;
inline constexpr double kStragglerRate = 0.01;  // at least one per round

// Builds one round's byte stream.
//   genuine      encoded data frames of the round, distinct identities;
//   may_copy[i]  whether genuine[i] may be duplicated (a valid report: a
//                duplicate of a client-faulted report would be rejected
//                for its fault again, not as a duplicate);
//   marker       the round's encoded end-of-round frame;
//   stale_pool   encoded frames of a round the collector has closed by the
//                time this one is announced (may be empty).
// Adds the collector counters the stream must produce to `*counts`.
// Junk never contains the frame magic pair, and the stream always ends
// with a genuine frame, so every junk byte is skipped exactly once and no
// frame of the round can arrive after the round completes.
std::vector<uint8_t> BuildHostileStream(
    const std::vector<std::vector<uint8_t>>& genuine,
    const std::vector<bool>& may_copy, const std::vector<uint8_t>& marker,
    const std::vector<std::vector<uint8_t>>& stale_pool, uint64_t seed,
    NetworkCounts* counts);

}  // namespace replaybench

#endif  // REPLAYBENCH_HOSTILE_H_
