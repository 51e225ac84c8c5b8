// S3 "stream" — long-lived streaming service mode.
//
// Turns the simulator into a service: arrivals are ingested from a trace
// file, stdin, or a deterministic synthetic generator, flow through a
// fixed-capacity SPSC ring buffer into the sparse-table CJZ cohort core,
// and completed metric windows leave as JSON lines the moment they close.
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
// footprint) go to stderr, so piped output stays machine-readable.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include "cli/benches/benches.hpp"
#include "common/file_io.hpp"
#include "engine/stream.hpp"
#include "exp/bench_driver.hpp"

namespace cr::benches {

namespace {

int run(int argc, const char* const* argv) {
  const BenchDriver driver(argc, argv, {stream().id, stream().summary, stream().flags});

  const std::uint64_t seed = driver.seed(1);
  const auto window = static_cast<slot_t>(driver.get_int("window", 1024, 256));
  const auto ring_capacity = static_cast<std::size_t>(driver.get_int("ring", 1024, 1024));
  const auto synth_count = static_cast<std::uint64_t>(driver.get_int("synth", 0, 0));
  const auto max_windows = static_cast<std::uint64_t>(driver.get_int("max_windows", 0, 0));
  const auto checkpoint_every =
      static_cast<slot_t>(driver.get_int("checkpoint_every", 0, 0));
  const std::string trace_path = driver.cli().get_string("trace", "-");
  const std::string overflow = driver.cli().get_string("overflow", "block");
  const std::string table = driver.cli().get_string("table", "sparse");
  const std::string checkpoint_path = driver.cli().get_string("checkpoint", "");
  const std::string restore_path = driver.cli().get_string("restore", "");

  if (window < 1) {
    std::fprintf(stderr, "cr stream: --window must be >= 1\n");
    return 2;
  }
  if (ring_capacity < 1) {
    std::fprintf(stderr, "cr stream: --ring must be >= 1\n");
    return 2;
  }
  if (overflow != "block" && overflow != "drop") {
    std::fprintf(stderr, "cr stream: --overflow must be block or drop (got \"%s\")\n",
                 overflow.c_str());
    return 2;
  }
  if (table != "sparse" && table != "dense") {
    std::fprintf(stderr, "cr stream: --table must be sparse or dense (got \"%s\")\n",
                 table.c_str());
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
  opts.node_table = table == "dense" ? NodeTableKind::kDense : NodeTableKind::kSparse;

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

  // The trace file is opened before the producer thread starts so a bad
  // path fails fast with exit 2 instead of mid-run.
  std::ifstream trace_file;
  std::istream* trace_in = &std::cin;
  if (synth_count == 0 && trace_path != "-") {
    trace_file.open(trace_path);
    if (!trace_file) {
      std::fprintf(stderr, "cr stream: cannot open trace \"%s\"\n", trace_path.c_str());
      return 2;
    }
    trace_in = &trace_file;
  }

  EventRing ring(ring_capacity);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> dropped{0};
  std::string feed_error;  // written by the producer, read after join()

  std::thread producer([&] {
    std::uint64_t skip = sim.feed_skip();
    const auto feed = [&](const StreamEvent& ev) -> bool {
      if (skip > 0) {
        --skip;
        return true;
      }
      if (policy == OverflowPolicy::kBlock) {
        while (!ring.try_push(ev)) {
          if (stop.load(std::memory_order_acquire)) return false;
          std::this_thread::yield();
        }
      } else if (!ring.try_push(ev)) {
        dropped.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    };
    if (synth_count > 0) {
      for (const StreamEvent& ev : synth_stream_events(seed, synth_count))
        if (!feed(ev)) break;
    } else {
      std::string line;
      std::string error;
      StreamEvent ev;
      while (std::getline(*trace_in, line)) {
        if (!parse_stream_event(line, &ev, &error)) {
          if (!error.empty()) {
            feed_error = error;
            break;
          }
          continue;  // blank / comment line
        }
        if (!feed(ev)) break;
      }
    }
    ring.close();
  });

  const StreamRunSummary summary = sim.run(ring, driver.out());
  stop.store(true, std::memory_order_release);
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
               static_cast<unsigned long long>(dropped.load()));
  std::fprintf(stderr,
               "stream: node table %s, peak live %llu, resident slots %llu (%llu bytes)\n",
               table.c_str(), static_cast<unsigned long long>(mem.peak_live_nodes),
               static_cast<unsigned long long>(mem.node_table_slots),
               static_cast<unsigned long long>(mem.node_bytes));
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
  spec.flags = {
      {"trace", "arrival trace path, \"-\" = stdin (lines: slot inject [jam01]; default -)"},
      {"synth", "generate N synthetic feed events instead of reading a trace (default 0)"},
      {"window", "metrics window width in slots (default 1024, quick 256)"},
      {"ring", "SPSC ring-buffer capacity in events (default 1024)"},
      {"overflow", "ring-full policy: block (lossless) | drop (count drops; default block)"},
      {"table", "node-table storage: sparse | dense (default sparse)"},
      {"checkpoint", "checkpoint blob path (written atomically; default: none)"},
      {"checkpoint_every", "cut a checkpoint every N slots (0 = only at stop; default 0)"},
      {"restore", "resume from this checkpoint blob, re-feeding the same trace"},
      {"max_windows", "stop after N completed windows (0 = run to feed EOF; default 0)"},
  };
  spec.csv_columns = {};
  spec.csv_row_desc =
      "no CSV — output is JSON lines on stdout, one object per completed window";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches
