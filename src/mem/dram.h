#pragma once
// Cycle-driven DRAM memory-controller model.
//
// The paper's full-SoC argument is that shared-substrate contention is where
// multicore performance goes — and the DRAM controller is the component that
// shapes that contention. This model therefore goes beyond a flat latency
// table: N independent channels selected by a pluggable address-interleaving
// policy, per-bank state with an open-row policy, a pluggable request
// scheduler (FCFS baseline, FR-FCFS prioritizing row hits), periodic
// all-bank refresh windows, and a buffered write queue with a forced
// drain mode. It still deliberately omits DDR protocol minutiae — what
// matters is (a) DRAM being far slower than SRAM, (b) row-buffer locality
// rewarding streaming access, (c) bounded per-channel bandwidth shared by
// all requestors, and now (d) scheduling and refresh shaping who waits.
//
// Backward compatibility is a hard invariant: configured as 1 channel +
// FCFS + no refresh + write-through (the defaults), the controller's timing
// math reduces exactly to the original flat model, so the repo's golden
// cycle counts (309917/1087553/9355595) are bit-identical.
//
// Interface contract (unchanged): callers issue accesses in approximately
// nondecreasing global time and get the completion cycle back synchronously.
// Reads (`access`) enqueue into their channel and the controller schedules
// queued requests — buffered writebacks included — under the configured
// policy until the read completes. Writes (`write`) are fire-and-forget:
// write-through mode issues them immediately in arrival order; buffered
// mode queues them until a scheduler pass picks them, the queue fills (a
// forced write-drain episode), or `drain_writes()` flushes at end of run.
// Reads may bypass queued writes under FR-FCFS; the functional payload
// lives in PhysMem, which models the zero-penalty write-queue forwarding
// real controllers perform.

#include <cstdint>
#include <vector>

#include "src/base/observers.h"
#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/types.h"

namespace gemmini {

/// Request scheduling policy of each channel's controller.
enum class DramScheduler : std::uint8_t {
  kFcfs,    ///< strict arrival order (the seed model's implicit policy)
  kFrFcfs,  ///< first-ready: row hits first, then arrival order
};

/// How physical addresses map to channels.
enum class DramInterleave : std::uint8_t {
  kRow,        ///< consecutive rows rotate channels (addr / row_bytes)
  kCacheline,  ///< consecutive lines rotate channels (addr / interleave_bytes)
  kXorFold,    ///< XOR-folded line hash — breaks power-of-two stride camping
};

const char* dram_scheduler_name(DramScheduler s);
const char* dram_interleave_name(DramInterleave i);

struct DramConfig {
  unsigned channels = 1;                ///< independent controllers + buses
  unsigned banks = 8;                   ///< banks per channel
  std::uint64_t row_bytes = 2048;       ///< open-row granularity
  Cycle row_hit_latency = 30;           ///< CAS only
  Cycle row_miss_latency = 80;          ///< precharge + activate + CAS
  unsigned channel_width_bytes = 16;    ///< data bus bytes per cycle, per channel

  DramScheduler scheduler = DramScheduler::kFcfs;
  DramInterleave interleave = DramInterleave::kRow;
  std::uint64_t interleave_bytes = 64;  ///< kCacheline/kXorFold granularity

  /// All-bank refresh: the first `refresh_latency` cycles of every
  /// `refresh_interval`-cycle period block the channel and close every open
  /// row. 0 disables refresh (the seed behaviour).
  Cycle refresh_interval = 0;
  Cycle refresh_latency = 0;

  /// Write buffering. 0 = write-through: writebacks issue immediately in
  /// arrival order (the seed behaviour). >0 = writes queue per channel;
  /// when the queue reaches the depth the controller force-drains down to
  /// `write_drain_floor` (a write-drain episode).
  unsigned write_queue_depth = 0;
  unsigned write_drain_floor = 0;

  void validate() const {
    GEMMINI_CONFIG_REQUIRE(channels > 0 && channels <= 64,
                           "DRAM needs 1..64 channels");
    GEMMINI_CONFIG_REQUIRE(banks > 0, "DRAM needs at least one bank");
    GEMMINI_CONFIG_REQUIRE(row_bytes > 0 && (row_bytes & (row_bytes - 1)) == 0,
                           "row_bytes must be a power of two");
    GEMMINI_CONFIG_REQUIRE(
        interleave_bytes > 0 &&
            (interleave_bytes & (interleave_bytes - 1)) == 0,
        "interleave_bytes must be a power of two");
    GEMMINI_CONFIG_REQUIRE(channel_width_bytes > 0, "channel width > 0");
    GEMMINI_CONFIG_REQUIRE(
        refresh_interval == 0 || refresh_interval > refresh_latency,
        "refresh_interval must exceed refresh_latency (or be 0 = off)");
    GEMMINI_CONFIG_REQUIRE(refresh_interval > 0 || refresh_latency == 0,
                           "refresh_latency needs a refresh_interval");
    GEMMINI_CONFIG_REQUIRE(
        write_queue_depth == 0 || write_drain_floor < write_queue_depth,
        "write_drain_floor must be below write_queue_depth");
    GEMMINI_CONFIG_REQUIRE(write_queue_depth > 0 || write_drain_floor == 0,
                           "write_drain_floor needs a write_queue_depth");
  }
};

class Dram {
 public:
  /// tCCD: cycles between column commands to the same open bank.
  static constexpr Cycle kColumnCommandOccupancy = 4;

  /// Per-requestor share of DRAM traffic and row-buffer behaviour.
  struct RequestorStats {
    int requestor = 0;
    std::uint64_t accesses = 0;
    std::uint64_t bytes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    /// Per-channel byte split; entries sum to `bytes`.
    std::vector<std::uint64_t> channel_bytes;

    friend bool operator==(const RequestorStats&, const RequestorStats&) =
        default;
  };

  /// Per-channel controller statistics.
  struct ChannelStats {
    unsigned channel = 0;
    std::uint64_t accesses = 0;
    std::uint64_t bytes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    std::uint64_t writes = 0;            ///< issued writes (of `accesses`)
    std::uint64_t refresh_periods = 0;   ///< refresh periods entered
    std::uint64_t refresh_stall_cycles = 0;
    std::uint64_t queue_wait_cycles = 0;
    std::uint64_t write_drains = 0;      ///< forced drain episodes
    std::uint64_t writes_buffered = 0;   ///< writes that entered the queue
    /// Time-weighted request-queue depth (base::TimeWeighted over enqueue /
    /// dequeue events); observational only — scheduling is unaffected.
    double avg_queue_depth = 0;
    double max_queue_depth = 0;

    friend bool operator==(const ChannelStats&, const ChannelStats&) = default;
  };

  /// Everything the controller counts, since the last reset_stats(). Each
  /// issued command is counted once per channel and once per requestor.
  struct Stats {
    std::vector<ChannelStats> channels;      ///< indexed by channel
    std::vector<RequestorStats> requestors;  ///< first-seen order

    /// Channel counts summed over all channels (queue depths excluded).
    ChannelStats totals() const;
  };

  /// `obs.faults` (may be null) receives read completions on the data path
  /// so the fault layer can flip bits and charge ECC correction latency.
  explicit Dram(const DramConfig& cfg, Observers obs = {});

  /// Which channel services `addr`, under the configured interleave policy.
  unsigned channel_of(PAddr addr) const;

  /// XOR-folded bank hash within a channel (as in real memory controllers):
  /// large-stride streams (e.g. three tensors 1 MB apart) spread across
  /// banks instead of ping-ponging one bank's row buffer.
  unsigned bank_of(PAddr addr) const {
    const std::uint64_t row = addr / cfg_.row_bytes;
    // Fold every row bit down into the bank index so power-of-two strides
    // at any scale spread across banks.
    std::uint64_t h = row;
    for (unsigned s = 3; s < 36; s += 3) h ^= row >> s;
    return static_cast<unsigned>(h % cfg_.banks);
  }

  /// One line-sized read issued at time `t`. Enqueues into the channel and
  /// schedules queued requests under the configured policy until this one
  /// completes; returns its completion time.
  Cycle access(PAddr addr, std::uint64_t bytes, Cycle t,
               RequestorId requestor);

  /// One line-sized write (L2 writeback drain). Fire-and-forget: in
  /// write-through mode it issues immediately; in buffered mode it queues,
  /// force-draining when the queue fills.
  void write(PAddr addr, std::uint64_t bytes, Cycle t, RequestorId requestor);

  /// Issues every still-buffered write (end of a run, so per-requestor and
  /// per-channel accounting is conservation-complete: every request that
  /// entered the controller has been issued and counted).
  void drain_writes();

  /// Buffered writes currently queued across all channels.
  std::size_t pending_writes() const;

  /// Requests currently queued on `channel` (the queue-depth gauge).
  std::size_t queue_depth(unsigned channel) const {
    return channels_[channel].queue.size();
  }

  const DramConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  /// Drops banks, queues and in-flight timing state; counts are kept.
  void reset_time();
  /// Zeroes every count (the Soc calls this at run start).
  void reset_stats();

 private:
  struct Bank {
    bool open_valid = false;
    std::uint64_t open_row = 0;
    Cycle busy_until = 0;
    std::uint64_t refresh_period = 0;  ///< last refresh period observed
  };

  struct Request {
    PAddr addr = 0;
    std::uint64_t bytes = 0;
    Cycle arrival = 0;
    int requestor = 0;
    bool is_write = false;
    std::uint64_t seq = 0;  ///< global arrival order (FCFS key)
    std::uint64_t row = 0;
    unsigned bank = 0;
  };

  struct Channel {
    std::vector<Bank> banks;
    Cycle busy_until = 0;          ///< data bus
    std::vector<Request> queue;    ///< pending (buffered writes + in-flight read)
    TimeWeighted depth;            ///< queue-depth accumulator (observational)
    /// Refresh periods entered so far (period `p` means `p + 1` windows,
    /// including period 0's), so each period is counted exactly once.
    std::uint64_t refresh_periods_seen = 0;
  };

  Request make_request(PAddr addr, std::uint64_t bytes, Cycle t,
                       RequestorId requestor, bool is_write);
  /// Index into `ch.queue` of the request the scheduler issues next.
  std::size_t pick_next(const Channel& ch) const;
  /// Issues one request on channel `ci` (the old flat model's timing math,
  /// plus refresh windows); returns its completion time.
  Cycle issue(unsigned ci, const Request& rq);
  /// Records the channel's current queue depth at time `t` into the
  /// time-weighted accumulator and mirrors mean/max into ChannelStats.
  void note_queue_depth(unsigned ci, Cycle t);

  RequestorStats& requestor_stats(int id);

  DramConfig cfg_;
  Observers obs_;
  std::vector<Channel> channels_;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace gemmini
