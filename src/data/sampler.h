// Data-loading semantics (paper §V-C, Fig 13).
//
// SerialSampler implements Elan's *serial* semantics: all workers consume one
// global, contiguous stream of sample indices, so the loader state is a
// single integer and the remaining data is always one contiguous range —
// repartition after a resource adjustment is free.
//
// ChunkSampler implements the *chunk-based* semantics common in DL
// frameworks: the epoch is pre-partitioned into chunks owned by workers;
// after some training the remaining data is fragmented, so the state is a
// record table and repartition needs real logic. It exists both as a
// comparison point and to validate the consistency property both must share:
// every sample is consumed exactly once per epoch, across any sequence of
// adjustments.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "data/dataset.h"

namespace elan::data {

/// Contiguous half-open range of sample indices.
struct SampleRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
  bool operator==(const SampleRange&) const = default;
};

/// ---------------------------------------------------------------------------
/// Serial semantics: one global cursor.
/// ---------------------------------------------------------------------------
class SerialSampler {
 public:
  explicit SerialSampler(Dataset dataset);

  const Dataset& dataset() const { return dataset_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t cursor() const { return cursor_; }
  std::uint64_t remaining() const { return dataset_.num_samples - cursor_; }
  bool epoch_done() const { return cursor_ >= dataset_.num_samples; }

  /// Consumes up to `n` samples; returns the consumed range (clipped at the
  /// epoch boundary; empty when the epoch is exhausted).
  SampleRange next_batch(std::uint64_t n);

  /// Advances to the next epoch; requires the current one to be exhausted
  /// unless `force` is set.
  void begin_next_epoch(bool force = false);

  /// The loader state is a single integer (plus the epoch counter): this is
  /// the paper's headline property of serial semantics.
  struct State {
    std::uint64_t epoch = 0;
    std::uint64_t cursor = 0;

    static auto wire_fields(auto& s) { return std::tie(s.epoch, s.cursor); }

    bool operator==(const State&) const = default;
  };
  State state() const { return State{epoch_, cursor_}; }
  void restore(const State& s);
  static constexpr Bytes state_bytes() { return sizeof(State); }

 private:
  Dataset dataset_;
  std::uint64_t epoch_ = 0;
  std::uint64_t cursor_ = 0;
};

/// ---------------------------------------------------------------------------
/// Chunk-based semantics: record table.
/// ---------------------------------------------------------------------------
class ChunkSampler {
 public:
  ChunkSampler(Dataset dataset, std::uint64_t chunk_size, int num_workers);

  const Dataset& dataset() const { return dataset_; }
  std::uint64_t epoch() const { return table_.epoch; }
  int num_workers() const { return table_.num_workers; }
  std::uint64_t num_chunks() const { return table_.chunks.size(); }

  /// Consumes up to `n` samples for `worker` from its assigned chunks; may
  /// return fewer than `n` (or empty) when the worker's chunks are drained.
  SampleRange next_batch(int worker, std::uint64_t n);

  std::uint64_t remaining() const;
  bool epoch_done() const { return remaining() == 0; }
  void begin_next_epoch(bool force = false);

  /// Reassigns the *remaining* (possibly fragmented) data across a new worker
  /// count — the complex repartition logic serial semantics avoids.
  void repartition(int new_num_workers);

  /// Size of the record table that must be replicated as loader state.
  Bytes state_bytes() const;

  /// Serialises the full record table (the loader state a checkpoint or a
  /// replication must carry under chunk semantics).
  std::vector<std::uint8_t> serialize_state() const;
  void restore_state(std::span<const std::uint8_t> data);

  /// Consumed flags for verification: total samples consumed this epoch.
  std::uint64_t consumed() const { return table_.consumed; }

 private:
  struct Chunk {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint64_t cursor = 0;  // next unconsumed sample within [begin, end)
    int owner = -1;
    std::uint64_t left() const { return end - cursor; }

    static constexpr bool kWireRow = true;
    static auto wire_fields(auto& c) { return std::tie(c.begin, c.end, c.cursor, c.owner); }
  };

  /// The record table: the loader state serialize_state() carries.
  struct Table {
    std::uint64_t epoch = 0;
    std::uint64_t consumed = 0;
    int num_workers = 0;
    std::vector<Chunk> chunks;

    static auto wire_fields(auto& t) {
      return std::tie(t.epoch, t.consumed, t.num_workers, t.chunks);
    }
  };

  Dataset dataset_;
  std::uint64_t chunk_size_;
  Table table_;

  void build_chunks();
  void assign_round_robin();
};

}  // namespace elan::data
