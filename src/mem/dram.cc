#include "src/mem/dram.h"

#include <algorithm>

#include "src/fault/fault.h"
#include "src/trace/trace.h"

namespace gemmini {

const char* dram_scheduler_name(DramScheduler s) {
  switch (s) {
    case DramScheduler::kFcfs: return "fcfs";
    case DramScheduler::kFrFcfs: return "frfcfs";
  }
  return "?";
}

const char* dram_interleave_name(DramInterleave i) {
  switch (i) {
    case DramInterleave::kRow: return "row";
    case DramInterleave::kCacheline: return "line";
    case DramInterleave::kXorFold: return "xor";
  }
  return "?";
}

Dram::Dram(const DramConfig& cfg, Observers obs) : cfg_(cfg), obs_(obs) {
  cfg_.validate();
  channels_.resize(cfg_.channels);
  for (Channel& ch : channels_) ch.banks.assign(cfg_.banks, Bank{});
  reset_stats();
}

Dram::ChannelStats Dram::Stats::totals() const {
  ChannelStats t;
  for (const ChannelStats& cs : channels) {
    t.accesses += cs.accesses;
    t.bytes += cs.bytes;
    t.row_hits += cs.row_hits;
    t.row_misses += cs.row_misses;
    t.writes += cs.writes;
    t.refresh_periods += cs.refresh_periods;
    t.refresh_stall_cycles += cs.refresh_stall_cycles;
    t.queue_wait_cycles += cs.queue_wait_cycles;
    t.write_drains += cs.write_drains;
    t.writes_buffered += cs.writes_buffered;
  }
  return t;
}

unsigned Dram::channel_of(PAddr addr) const {
  if (cfg_.channels == 1) return 0;
  switch (cfg_.interleave) {
    case DramInterleave::kRow:
      return static_cast<unsigned>((addr / cfg_.row_bytes) % cfg_.channels);
    case DramInterleave::kCacheline:
      return static_cast<unsigned>((addr / cfg_.interleave_bytes) %
                                   cfg_.channels);
    case DramInterleave::kXorFold: {
      // Fold every block bit into the channel index so power-of-two strides
      // at any scale rotate channels instead of camping on one.
      const std::uint64_t blk = addr / cfg_.interleave_bytes;
      std::uint64_t h = blk;
      for (unsigned s = 2; s < 34; s += 2) h ^= blk >> s;
      return static_cast<unsigned>(h % cfg_.channels);
    }
  }
  return 0;
}

Dram::Request Dram::make_request(PAddr addr, std::uint64_t bytes, Cycle t,
                                 RequestorId requestor, bool is_write) {
  Request rq;
  rq.addr = addr;
  rq.bytes = bytes;
  rq.arrival = t;
  rq.requestor = requestor.value;
  rq.is_write = is_write;
  rq.seq = next_seq_++;
  rq.row = addr / cfg_.row_bytes;
  rq.bank = bank_of(addr);
  return rq;
}

std::size_t Dram::pick_next(const Channel& ch) const {
  std::size_t oldest = 0;
  std::uint64_t oldest_seq = ch.queue[0].seq;
  std::size_t oldest_hit = ch.queue.size();
  std::uint64_t oldest_hit_seq = 0;
  for (std::size_t i = 0; i < ch.queue.size(); ++i) {
    const Request& r = ch.queue[i];
    if (r.seq < oldest_seq) {
      oldest = i;
      oldest_seq = r.seq;
    }
    if (cfg_.scheduler == DramScheduler::kFrFcfs) {
      const Bank& b = ch.banks[r.bank];
      if (b.open_valid && b.open_row == r.row &&
          (oldest_hit == ch.queue.size() || r.seq < oldest_hit_seq)) {
        oldest_hit = i;
        oldest_hit_seq = r.seq;
      }
    }
  }
  // FR-FCFS: first-ready (row hit) wins; ties and the no-hit case fall back
  // to arrival order, which is also the whole FCFS policy.
  return oldest_hit < ch.queue.size() ? oldest_hit : oldest;
}

Cycle Dram::issue(unsigned ci, const Request& rq) {
  Channel& ch = channels_[ci];
  Bank& bank = ch.banks[rq.bank];
  ChannelStats& cs = stats_.channels[ci];
  const std::uint32_t global_bank = ci * cfg_.banks + rq.bank;

  // The bank is busy until its previous access finishes; requests that
  // queued behind it (or behind the scheduler's earlier picks) eat the
  // difference as queue wait.
  const Cycle bank_ready =
      rq.arrival > bank.busy_until ? rq.arrival : bank.busy_until;
  if (bank_ready > rq.arrival) {
    cs.queue_wait_cycles += bank_ready - rq.arrival;
    if (obs_.trace) {
      obs_.trace->span(trace::EventKind::kDramQueueWait, rq.arrival,
                       bank_ready, rq.bytes, rq.requestor, global_bank);
    }
  }
  Cycle start = bank_ready;

  if (cfg_.refresh_interval > 0) {
    // All-bank refresh occupies the first refresh_latency cycles of every
    // interval: an issue landing inside the window stalls until it ends,
    // and the first access of each period finds its row closed.
    const std::uint64_t period = start / cfg_.refresh_interval;
    const Cycle window_end =
        static_cast<Cycle>(period) * cfg_.refresh_interval +
        cfg_.refresh_latency;
    if (start < window_end) {
      cs.refresh_stall_cycles += window_end - start;
      if (obs_.trace) {
        obs_.trace->span(trace::EventKind::kDramRefresh, start, window_end,
                         rq.bytes, rq.requestor, global_bank);
      }
      start = window_end;
    }
    if (bank.refresh_period != period) {
      bank.open_valid = false;
      bank.refresh_period = period;
    }
    if (period + 1 > ch.refresh_periods_seen) {
      cs.refresh_periods += period + 1 - ch.refresh_periods_seen;
      ch.refresh_periods_seen = period + 1;
    }
  }

  const bool row_hit = bank.open_valid && bank.open_row == rq.row;
  const Cycle access_lat =
      row_hit ? cfg_.row_hit_latency : cfg_.row_miss_latency;
  cs.accesses += 1;
  cs.bytes += rq.bytes;
  cs.writes += rq.is_write ? 1 : 0;
  (row_hit ? cs.row_hits : cs.row_misses) += 1;
  RequestorStats& rs = requestor_stats(rq.requestor);
  rs.accesses += 1;
  rs.bytes += rq.bytes;
  rs.channel_bytes[ci] += rq.bytes;
  (row_hit ? rs.row_hits : rs.row_misses) += 1;

  // The channel's data bus serializes only the data *bursts*, so accesses
  // to different banks overlap their activate/CAS latencies; column
  // commands pipeline on an open row (tCCD), so streaming reads from the
  // same row proceed at burst rate.
  const Cycle data_ready = start + access_lat;
  const Cycle burst_start =
      data_ready > ch.busy_until ? data_ready : ch.busy_until;
  const Cycle burst =
      (rq.bytes + cfg_.channel_width_bytes - 1) / cfg_.channel_width_bytes;
  const Cycle done = burst_start + burst;
  bank.busy_until =
      row_hit ? start + kColumnCommandOccupancy : start + access_lat;
  bank.open_valid = true;
  bank.open_row = rq.row;
  ch.busy_until = done;
  if (obs_.trace) {
    obs_.trace->span(row_hit ? trace::EventKind::kDramRowHit
                             : trace::EventKind::kDramRowMiss,
                     start, done, rq.bytes, rq.requestor, global_bank);
  }
  // Fault layer: reads on the data path may flip bits; corrected words
  // extend only this request's completion (the correction pipeline sits
  // behind the row buffer, so the bank/bus stay on schedule). Page-table
  // walks are exempt — see src/fault/fault.h.
  if (obs_.faults && !rq.is_write && rq.requestor != kPtwRequestor) {
    return done + obs_.faults->on_dram_read(rq.addr, rq.bytes, done,
                                            rq.requestor);
  }
  return done;
}

Cycle Dram::access(PAddr addr, std::uint64_t bytes, Cycle t,
                   RequestorId requestor) {
  const unsigned ci = channel_of(addr);
  Channel& ch = channels_[ci];
  const Request rq = make_request(addr, bytes, t, requestor, false);
  const std::uint64_t my_seq = rq.seq;
  ch.queue.push_back(rq);
  note_queue_depth(ci, t);
  // Schedule queued requests (buffered writebacks included) until this read
  // completes. Requests the policy leaves behind (e.g. row-miss writes a
  // FR-FCFS read bypassed) stay queued for a later pass or drain.
  while (true) {
    const std::size_t i = pick_next(ch);
    const Request cur = ch.queue[i];
    ch.queue.erase(ch.queue.begin() + static_cast<std::ptrdiff_t>(i));
    note_queue_depth(ci, cur.arrival);
    const Cycle done = issue(ci, cur);
    if (cur.seq == my_seq) return done;
  }
}

void Dram::write(PAddr addr, std::uint64_t bytes, Cycle t,
                 RequestorId requestor) {
  const unsigned ci = channel_of(addr);
  Channel& ch = channels_[ci];
  const Request rq = make_request(addr, bytes, t, requestor, true);
  if (cfg_.write_queue_depth == 0) {
    // Write-through (the seed behaviour): issue immediately, arrival order.
    issue(ci, rq);
    return;
  }
  ch.queue.push_back(rq);
  note_queue_depth(ci, t);
  ChannelStats& cs = stats_.channels[ci];
  cs.writes_buffered += 1;
  if (ch.queue.size() >= cfg_.write_queue_depth) {
    // Write-drain mode: the queue hit its depth; burst-issue writes down to
    // the floor so the bus does one drain episode instead of trickling.
    cs.write_drains += 1;
    Cycle last_done = t;
    std::uint64_t drained_bytes = 0;
    while (ch.queue.size() > cfg_.write_drain_floor) {
      const std::size_t i = pick_next(ch);
      const Request cur = ch.queue[i];
      ch.queue.erase(ch.queue.begin() + static_cast<std::ptrdiff_t>(i));
      note_queue_depth(ci, t);
      drained_bytes += cur.bytes;
      last_done = std::max(last_done, issue(ci, cur));
    }
    if (obs_.trace) {
      obs_.trace->span(trace::EventKind::kDramWriteDrain, t, last_done,
                       drained_bytes, requestor.value, ci);
    }
  }
}

void Dram::drain_writes() {
  for (unsigned ci = 0; ci < cfg_.channels; ++ci) {
    Channel& ch = channels_[ci];
    while (!ch.queue.empty()) {
      const std::size_t i = pick_next(ch);
      const Request cur = ch.queue[i];
      ch.queue.erase(ch.queue.begin() + static_cast<std::ptrdiff_t>(i));
      note_queue_depth(ci, cur.arrival);
      issue(ci, cur);
    }
  }
}

void Dram::note_queue_depth(unsigned ci, Cycle t) {
  Channel& ch = channels_[ci];
  ch.depth.record(t, static_cast<double>(ch.queue.size()));
  ChannelStats& cs = stats_.channels[ci];
  cs.avg_queue_depth = ch.depth.mean();
  cs.max_queue_depth = ch.depth.max();
}

std::size_t Dram::pending_writes() const {
  std::size_t n = 0;
  for (const Channel& ch : channels_) n += ch.queue.size();
  return n;
}

void Dram::reset_time() {
  for (Channel& ch : channels_) {
    for (Bank& b : ch.banks) b = Bank{};
    ch.busy_until = 0;
    ch.queue.clear();
    ch.refresh_periods_seen = 0;
  }
  next_seq_ = 0;
}

void Dram::reset_stats() {
  stats_ = Stats{};
  stats_.channels.resize(cfg_.channels);
  for (unsigned c = 0; c < cfg_.channels; ++c) {
    stats_.channels[c].channel = c;
    channels_[c].depth.reset();
  }
}

Dram::RequestorStats& Dram::requestor_stats(int id) {
  for (RequestorStats& rs : stats_.requestors) {
    if (rs.requestor == id) return rs;
  }
  stats_.requestors.push_back(RequestorStats{id, 0, 0, 0, 0, {}});
  stats_.requestors.back().channel_bytes.assign(cfg_.channels, 0);
  return stats_.requestors.back();
}

}  // namespace gemmini
