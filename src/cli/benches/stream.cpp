// S3 "stream" — long-lived streaming service mode.
//
// Turns the simulator into a service: arrivals are ingested from a trace
// file, stdin, or a deterministic synthetic generator, flow through a
// fixed-capacity SPSC ring buffer into the CJZ cohort core, and completed
// metric windows leave as JSON lines the moment they close.
// There is no horizon — the run ends when the feed does (or after
// --max_windows). Checkpoint/restore is bit-exact: kill the process, point
// --restore at the last checkpoint, re-feed the same trace, and the output
// tail is byte-identical to the uninterrupted run (determinism rule 8 in
// docs/ARCHITECTURE.md; enforced by the `stream`-labelled tests).
//
//   cr stream --synth=100000 --window=4096 --checkpoint=run.snap > run.jsonl
//   cr stream --trace=feed.txt --max_windows=8 ... (see --help)
//
// JSON lines go to stdout; operational notes (event counts, drops, memory
// footprint, the slots stepped and folded, ring sleeps) go to stderr, so
// piped output stays machine-readable.
#include <cstdio>
#include <optional>
#include <thread>

#include "cli/benches/benches.hpp"
#include "common/file_io.hpp"
#include "engine/stream.hpp"
#include "exp/bench_driver.hpp"

namespace cr::benches {

namespace {

int run(const BenchDriver& driver) {
  const ParamValues& flags = driver.flags();
  const std::uint64_t seed = driver.seed(1);
  const slot_t window = flags.as_uint("window");
  const auto ring_capacity = static_cast<std::size_t>(flags.as_uint("ring"));
  const std::uint64_t synth_count = flags.as_uint("synth");
  const std::uint64_t max_windows = flags.as_uint("max_windows");
  const slot_t checkpoint_every = flags.as_uint("checkpoint_every");
  const std::string& trace_path = flags.text("trace");
  const std::string& overflow = flags.text("overflow");
  const std::string& checkpoint_path = flags.text("checkpoint");
  const std::string& restore_path = flags.text("restore");

  if (overflow != "block" && overflow != "drop") {
    std::fprintf(stderr, "cr stream: --overflow must be block or drop (got \"%s\")\n",
                 overflow.c_str());
    return 2;
  }
  if (synth_count > 0 && driver.cli().has("trace")) {
    std::fprintf(stderr, "cr stream: --synth and --trace are mutually exclusive\n");
    return 2;
  }
  if (!restore_path.empty() && overflow == "drop") {
    // Drops depend on producer/consumer timing, so a restored run could see
    // a different feed than the original — the bit-identity contract cannot
    // hold. Refuse instead of silently diverging.
    std::fprintf(stderr,
                 "cr stream: --restore requires --overflow=block (drops are "
                 "timing-dependent, which breaks restore determinism)\n");
    return 2;
  }
  const OverflowPolicy policy =
      overflow == "drop" ? OverflowPolicy::kDrop : OverflowPolicy::kBlock;

  StreamOptions opts;
  opts.seed = seed;
  opts.window = window;
  opts.max_windows = max_windows;
  opts.checkpoint_every = checkpoint_every;

  StreamSim sim(opts);

  if (!restore_path.empty()) {
    std::string bytes;
    if (!read_file(restore_path, &bytes)) {
      std::fprintf(stderr, "cr stream: cannot open snapshot \"%s\"\n", restore_path.c_str());
      return 2;
    }
    std::string error;
    if (!sim.restore(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size(), &error)) {
      std::fprintf(stderr, "cr stream: restore failed: %s\n", error.c_str());
      return 2;
    }
    std::fprintf(stderr, "stream: restored \"%s\" at slot %llu (skipping %llu feed events)\n",
                 restore_path.c_str(), static_cast<unsigned long long>(sim.current_slot()),
                 static_cast<unsigned long long>(sim.feed_skip()));
  }

  // The first failed checkpoint write. The run goes on (the previous
  // checkpoint stays intact: a kill mid-write or a short write never
  // replaces it), but the exit code says the checkpoint is stale.
  std::string checkpoint_error;
  if (!checkpoint_path.empty()) {
    sim.set_checkpoint_sink([&](const std::vector<std::uint8_t>& blob) {
      std::string error;
      const std::string_view bytes(reinterpret_cast<const char*>(blob.data()), blob.size());
      if (!write_file_atomic(checkpoint_path, bytes, &error) && checkpoint_error.empty())
        checkpoint_error = error;
    });
  }

  // The trace (a file, or stdin for "-") is opened before the producer
  // thread starts so a bad path fails fast with exit 2 instead of mid-run.
  std::optional<LineReader> trace;
  if (synth_count == 0) {
    trace.emplace(trace_path);
    if (!trace->ok()) {
      std::fprintf(stderr, "cr stream: cannot open trace \"%s\": %s\n", trace_path.c_str(),
                   trace->error().c_str());
      return 2;
    }
  }

  EventRing ring(ring_capacity);
  // Written by the producer, read after join().
  std::uint64_t dropped = 0;
  std::string feed_error;

  // Read before the consumer starts: run() moves the feed cursor.
  std::uint64_t skip = sim.feed_skip();
  std::thread producer([&] {
    // False once the consumer has hung up: nothing more will be read.
    const auto feed = [&](const StreamEvent& ev) -> bool {
      if (skip > 0) {
        --skip;
        return true;
      }
      if (policy == OverflowPolicy::kBlock) return ring.push(ev);
      if (!ring.try_push(ev)) {
        if (ring.hung_up()) return false;
        ++dropped;
      }
      return true;
    };
    if (synth_count > 0) {
      SynthStream synth(seed);
      for (std::uint64_t i = 0; i < synth_count; ++i)
        if (!feed(synth.next())) break;
    } else {
      std::string_view line;
      std::string error;
      StreamEvent ev;
      while (trace->next(&line)) {
        if (!parse_stream_event(line, &ev, &error)) {
          if (!error.empty()) {
            feed_error = error;
            break;
          }
          continue;  // blank / comment line
        }
        if (!feed(ev)) break;
      }
      if (!trace->ok()) feed_error = "cannot read trace \"" + trace_path + "\": " + trace->error();
    }
    ring.close();
  });

  const StreamRunSummary summary = sim.run(ring, driver.out());
  // After an early stop the producer may be waiting for input on a pipe
  // that stays open; it must stop reading, not hold up the exit.
  if (trace) trace->cancel();
  producer.join();

  if (!feed_error.empty()) {
    std::fprintf(stderr, "cr stream: %s\n", feed_error.c_str());
    return 1;
  }
  if (!summary.ok()) {
    std::fprintf(stderr, "cr stream: %s\n", summary.error.c_str());
    return 1;
  }

  const CjzCoreMemoryStats mem = sim.memory_stats();
  std::fprintf(stderr,
               "stream: %llu slots, %llu events applied, %llu arrivals, %llu successes, "
               "backlog %llu, %llu windows, %llu dropped\n",
               static_cast<unsigned long long>(summary.slots),
               static_cast<unsigned long long>(summary.events_applied),
               static_cast<unsigned long long>(summary.arrivals),
               static_cast<unsigned long long>(summary.successes),
               static_cast<unsigned long long>(summary.live_at_end),
               static_cast<unsigned long long>(summary.windows),
               static_cast<unsigned long long>(dropped));
  std::fprintf(stderr, "stream: peak live %llu, resident slots %llu (%llu bytes)\n",
               static_cast<unsigned long long>(mem.peak_live_nodes),
               static_cast<unsigned long long>(mem.node_table_slots),
               static_cast<unsigned long long>(mem.node_bytes));
  std::fprintf(stderr,
               "stream: %llu slots stepped, %llu silent, %llu folded in %llu runs; "
               "ring sleeps: producer %llu, consumer %llu\n",
               static_cast<unsigned long long>(summary.work.slots_stepped),
               static_cast<unsigned long long>(summary.work.slots_silent),
               static_cast<unsigned long long>(summary.work.slots_skipped),
               static_cast<unsigned long long>(summary.folds),
               static_cast<unsigned long long>(ring.producer_sleeps()),
               static_cast<unsigned long long>(ring.consumer_sleeps()));
  if (!checkpoint_error.empty()) {
    std::fprintf(stderr, "cr stream: checkpoint %s: %s\n", checkpoint_path.c_str(),
                 checkpoint_error.c_str());
    return 2;
  }
  return 0;
}

}  // namespace

BenchSpec stream() {
  BenchSpec spec;
  spec.name = "stream";
  spec.id = "S3";
  spec.summary =
      "long-lived streaming service mode (ring-fed arrivals, windowed JSONL, "
      "bit-exact checkpoint/restore)";
  spec.claim =
      "— (service mode; determinism rule 8: restore-then-continue is bit-identical "
      "to the uninterrupted run)";
  spec.outcome =
      "one JSON line per completed metrics window plus a final {\"done\":...} summary; "
      "byte-identical across kill/checkpoint/restore on the same feed";
  const ParamBound at_least_one{.min = 1};
  spec.flags = {
      {"trace", ParamType::kText, "-",
       "arrival trace path, \"-\" = stdin (lines: slot inject [jam01])"},
      {"synth", ParamType::kUint, "0",
       "generate N synthetic feed events instead of reading a trace"},
      {"window", ParamType::kUint, "1024", "metrics window width in slots", at_least_one, "256"},
      {"ring", ParamType::kUint, "1024", "SPSC ring-buffer capacity in events", at_least_one},
      {"overflow", ParamType::kText, "block",
       "ring-full policy: block (lossless) | drop (count drops)"},
      {"checkpoint", ParamType::kText, "",
       "checkpoint blob path, written atomically; empty = none"},
      {"checkpoint_every", ParamType::kUint, "0",
       "cut a checkpoint every N slots (0 = only at stop)"},
      {"restore", ParamType::kText, "",
       "resume from this checkpoint blob, re-feeding the same trace; empty = none"},
      {"max_windows", ParamType::kUint, "0",
       "stop after N completed windows (0 = run to feed EOF)"},
  };
  spec.csv_columns = {};
  spec.csv_row_desc = "output is JSON lines on stdout, one object per completed window";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches
