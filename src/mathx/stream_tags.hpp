// Canonical registry of RNG stream-split tags.
//
// The determinism contract (core/session.hpp) makes every result a
// pure function of (source, pipeline, calibration, request, rng stream).
// Subsystems derive private child streams with `mathx::Rng::split(tag)` /
// `fork(tag)`; two subsystems splitting the SAME parent stream on the
// SAME tag would silently read identical randomness — a correlation bug
// no test reliably catches (both streams look individually fine). This
// header is therefore the single place a `*StreamTag` constant may be
// DEFINED; `scripts/lint/check_stream_tags.py` (CTest `lint_stream_tags`)
// extracts every tag literal tree-wide and fails on
//
//   1. a tag defined outside this registry (aliases that *name* a
//      registry tag are fine — that is how layer-local spellings work),
//   2. two registry entries whose reserved ranges overlap, and
//   3. use-site arithmetic (`kFooStreamTag + expr`) on a tag that did not
//      reserve a range, or with a literal offset outside that range.
//
// Each entry carries a machine-readable range marker:
//
//     // lint:stream-tag(range=N)
//
// meaning the tag owns [value, value + N): code may derive at most N
// consecutive child tags by arithmetic (e.g. the retry ladder). Tags
// without arithmetic reserve range=1.
//
// Lives in the mathx base layer (next to rng.hpp) so every layer that
// splits streams — core's runtime today, proto/net timelines tomorrow —
// registers here without an upward include.
#pragma once

#include <cstdint>

namespace chronos {

// lint:stream-tag-registry-begin  (everything between the begin/end
// markers is parsed by check_stream_tags.py; keep one tag per line)

/// "batch" in ASCII. fork() tag of a session's base stream: every
/// ingestion path — batch, async batch, streaming session, daemon (all
/// core/session.cpp sessions) — advances the caller's rng by exactly one
/// fork on this tag, so they are interchangeable bit-for-bit.
inline constexpr std::uint64_t kBatchStreamTag = 0x6261746368ull;  // lint:stream-tag(range=1)

/// "fault" in ASCII. split() tag of the per-request fault stream: every
/// fault decision and corruption draw in
/// core::FaultInjectingSweepSource::sweep_for comes from
/// request_stream.split(kFaultStreamTag), so worker scheduling cannot
/// change which ticket is faulted or how.
/// Provenance: PR 8 (core/fault_injection.hpp), registry since PR 9.
inline constexpr std::uint64_t kFaultStreamTag = 0x6661756C74ull;  // lint:stream-tag(range=1)

/// "retry" in ASCII. split() tag base of the retry-attempt ladder:
/// attempt a >= 1 of a ticket draws from
/// ticket_stream.split(kRetryStreamTag + a), a pure function of (seed,
/// ticket, attempt). The reserved range bounds the ladder;
/// range_with_retries (core/retry.cpp) rejects policies that would step
/// beyond it, so the offsets can never walk into another tag's range.
/// Provenance: PR 8 (core/retry.hpp), registry since PR 9.
inline constexpr std::uint64_t kRetryStreamTag = 0x7265747279ull;  // lint:stream-tag(range=4096)

/// "stale" in ASCII. split() tag of the stale-capture stream a replayed
/// sweep is drawn from (child of the fault stream, NOT of the ticket
/// stream): the deterministic stand-in for "an old capture of this link
/// served from a cache".
/// Provenance: PR 8 (file-local in core/fault_injection.cpp), hoisted to
/// the registry in PR 9.
inline constexpr std::uint64_t kStaleStreamTag = 0x7374616C65ull;  // lint:stream-tag(range=1)

// lint:stream-tag-registry-end

/// Upper bound kRetryStreamTag's reserved range places on
/// RetryPolicy::max_attempts (attempt offsets are 1..max_attempts-1, so
/// max_attempts may equal the range). Enforced in core/retry.cpp.
inline constexpr int kMaxRetryAttempts = 4096;

}  // namespace chronos
