#include "data/sampler.h"

#include <algorithm>

#include "common/serialize.h"

namespace elan::data {

SerialSampler::SerialSampler(Dataset dataset) : dataset_(std::move(dataset)) {
  require(dataset_.num_samples > 0, "SerialSampler: empty dataset");
}

SampleRange SerialSampler::next_batch(std::uint64_t n) {
  const std::uint64_t begin = cursor_;
  const std::uint64_t end = std::min(cursor_ + n, dataset_.num_samples);
  cursor_ = end;
  return SampleRange{begin, end};
}

void SerialSampler::begin_next_epoch(bool force) {
  require(force || epoch_done(), "SerialSampler: epoch not exhausted");
  ++epoch_;
  cursor_ = 0;
}

void SerialSampler::restore(const State& s) {
  require(s.cursor <= dataset_.num_samples, "SerialSampler::restore: bad cursor");
  epoch_ = s.epoch;
  cursor_ = s.cursor;
}

ChunkSampler::ChunkSampler(Dataset dataset, std::uint64_t chunk_size, int num_workers)
    : dataset_(std::move(dataset)), chunk_size_(chunk_size) {
  table_.num_workers = num_workers;
  require(dataset_.num_samples > 0, "ChunkSampler: empty dataset");
  require(chunk_size_ > 0, "ChunkSampler: chunk_size must be positive");
  require(table_.num_workers > 0, "ChunkSampler: num_workers must be positive");
  build_chunks();
  assign_round_robin();
}

void ChunkSampler::build_chunks() {
  table_.chunks.clear();
  for (std::uint64_t begin = 0; begin < dataset_.num_samples; begin += chunk_size_) {
    Chunk c;
    c.begin = begin;
    c.end = std::min(begin + chunk_size_, dataset_.num_samples);
    c.cursor = c.begin;
    table_.chunks.push_back(c);
  }
  table_.consumed = 0;
}

void ChunkSampler::assign_round_robin() {
  for (std::size_t i = 0; i < table_.chunks.size(); ++i) {
    table_.chunks[i].owner = static_cast<int>(i % static_cast<std::size_t>(table_.num_workers));
  }
}

SampleRange ChunkSampler::next_batch(int worker, std::uint64_t n) {
  require(worker >= 0 && worker < table_.num_workers, "ChunkSampler: bad worker");
  for (auto& c : table_.chunks) {
    if (c.owner != worker || c.left() == 0) continue;
    const std::uint64_t take = std::min(n, c.left());
    const SampleRange r{c.cursor, c.cursor + take};
    c.cursor += take;
    table_.consumed += take;
    return r;
  }
  return SampleRange{};  // drained
}

std::uint64_t ChunkSampler::remaining() const { return dataset_.num_samples - table_.consumed; }

void ChunkSampler::begin_next_epoch(bool force) {
  require(force || epoch_done(), "ChunkSampler: epoch not exhausted");
  ++table_.epoch;
  build_chunks();
  assign_round_robin();
}

void ChunkSampler::repartition(int new_num_workers) {
  require(new_num_workers > 0, "ChunkSampler::repartition: bad worker count");
  table_.num_workers = new_num_workers;
  auto& chunks = table_.chunks;
  // Collect chunks with remaining data and re-balance them by remaining
  // volume: repeatedly give the largest fragment to the least-loaded worker.
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i].left() > 0) live.push_back(i);
  }
  std::sort(live.begin(), live.end(), [&](std::size_t a, std::size_t b) {
    if (chunks[a].left() != chunks[b].left()) return chunks[a].left() > chunks[b].left();
    return a < b;
  });
  std::vector<std::uint64_t> load(static_cast<std::size_t>(table_.num_workers), 0);
  for (std::size_t idx : live) {
    const auto w = static_cast<int>(
        std::min_element(load.begin(), load.end()) - load.begin());
    chunks[idx].owner = w;
    load[static_cast<std::size_t>(w)] += chunks[idx].left();
  }
}

Bytes ChunkSampler::state_bytes() const {
  // Record table: per chunk a (begin, end, cursor, owner) row.
  return table_.chunks.size() * (3 * sizeof(std::uint64_t) + sizeof(int));
}

std::vector<std::uint8_t> ChunkSampler::serialize_state() const {
  return wire::encode(table_);
}

void ChunkSampler::restore_state(std::span<const std::uint8_t> data) {
  table_ = wire::decode<Table>(data);
}

}  // namespace elan::data
