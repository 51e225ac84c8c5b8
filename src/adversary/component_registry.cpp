#include "adversary/component_registry.hpp"

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"

namespace cr {

namespace {

// --- built-in arrivals -----------------------------------------------------

std::unique_ptr<ArrivalProcess> make_no_arrivals(const ParamValues&, const WorkloadContext&) {
  return no_arrivals();
}

std::unique_ptr<ArrivalProcess> make_batch(const ParamValues& p, const WorkloadContext&) {
  return batch_arrival(p.as_uint("n"), p.as_uint("at"));
}

std::unique_ptr<ArrivalProcess> make_bernoulli(const ParamValues& p, const WorkloadContext& ctx) {
  const std::uint64_t to = p.as_uint("to");
  return bernoulli_arrivals(p.as_double("rate"), p.as_uint("from"),
                            to == 0 ? ctx.horizon : static_cast<slot_t>(to));
}

std::unique_ptr<ArrivalProcess> make_uniform_random(const ParamValues& p,
                                                    const WorkloadContext& ctx) {
  // Construction-time randomness comes from the run seed, so the workload
  // stays a pure function of (spec, seed) like everything else.
  return uniform_random_arrivals(p.as_uint("total"), ctx.horizon, ctx.seed);
}

std::unique_ptr<ArrivalProcess> make_paced(const ParamValues& p, const WorkloadContext& ctx) {
  return paced_arrivals(ctx.fs, p.as_double("margin"));
}

std::unique_ptr<ArrivalProcess> make_bursty(const ParamValues& p, const WorkloadContext&) {
  return bursty_arrivals(p.as_uint("period"), p.as_uint("burst"));
}

// --- built-in jammers ------------------------------------------------------

std::unique_ptr<Jammer> make_no_jam(const ParamValues&, const WorkloadContext&) {
  return no_jam();
}

std::unique_ptr<Jammer> make_iid(const ParamValues& p, const WorkloadContext&) {
  return iid_jammer(p.as_double("fraction"));
}

std::unique_ptr<Jammer> make_prefix(const ParamValues& p, const WorkloadContext&) {
  return prefix_jammer(p.as_uint("count"));
}

std::unique_ptr<Jammer> make_periodic(const ParamValues& p, const WorkloadContext&) {
  return periodic_jammer(p.as_uint("period"), p.as_uint("burst"));
}

std::unique_ptr<Jammer> make_budget_paced(const ParamValues& p, const WorkloadContext& ctx) {
  return budget_paced_jammer(ctx.fs.g, p.as_double("margin"));
}

std::unique_ptr<Jammer> make_reactive(const ParamValues& p, const WorkloadContext& ctx) {
  return reactive_jammer(ctx.fs.g, p.as_double("margin"), p.as_uint("burst"));
}

}  // namespace

ArrivalRegistry::ArrivalRegistry() : Registry("arrival", "arrivals") {
  add({"none", "no arrivals", {}, make_no_arrivals});
  add({"batch",
       "n nodes arrive simultaneously (the paper's batch setting)",
       {{"n", ParamType::kUint, "256", "batch size"},
        {"at", ParamType::kUint, "1", "arrival slot"}},
       make_batch});
  add({"bernoulli",
       "one node per slot w.p. rate (rate > 1: floor(rate) plus a coin)",
       {{"rate", ParamType::kDouble, "0.1", "per-slot arrival probability", {.min = 0}},
        {"from", ParamType::kUint, "1", "first active slot"},
        {"to", ParamType::kUint, "0", "last active slot (0 = the run horizon)"}},
       make_bernoulli});
  add({"uniform_random",
       "total arrival instants uniform over [1, horizon] (Lemma 4.1's "
       "random-injected pattern; drawn from the run seed)",
       {{"total", ParamType::kUint, "256", "number of arrivals"}},
       make_uniform_random});
  add({"paced",
       "cumulative arrivals track t/(margin·f(t)) — the heaviest smooth "
       "pattern (Cor 3.6)",
       {{"margin", ParamType::kDouble, "4", "pacing margin (larger = lighter)",
         {.min = 0, .min_open = true}}},
       make_paced});
  add({"bursty",
       "burst nodes every period slots",
       {{"period", ParamType::kUint, "1024", "slots between bursts", {.min = 1}},
        {"burst", ParamType::kUint, "256", "nodes per burst"}},
       make_bursty});
}

ArrivalRegistry& ArrivalRegistry::instance() {
  static ArrivalRegistry registry;
  return registry;
}

JammerRegistry::JammerRegistry() : Registry("jammer", "jammers") {
  add({"none", "never jams", {}, make_no_jam});
  add({"iid",
       "each slot jammed independently w.p. fraction",
       {{"fraction", ParamType::kDouble, "0.25", "per-slot jam probability",
         {.min = 0, .max = 1}}},
       make_iid});
  add({"prefix",
       "jams slots [1, count] (Theorem 4.2's first move)",
       {{"count", ParamType::kUint, "1024", "length of the jammed prefix"}},
       make_prefix});
  add({"periodic",
       "jams the first burst slots of every period",
       {{"period", ParamType::kUint, "64", "cycle length", {.min = 1}},
        {"burst", ParamType::kUint, "8", "jammed slots per cycle", {.max_param = "period"}}},
       make_periodic});
  add({"budget_paced",
       "cumulative jamming tracks t/(margin·g(t)), spent greedily",
       {{"margin", ParamType::kDouble, "8", "budget margin (larger = weaker)",
         {.min = 0, .min_open = true}}},
       make_budget_paced});
  add({"reactive",
       "jams burst slots after each observed success, within the "
       "t/(margin·g(t)) budget",
       {{"margin", ParamType::kDouble, "8", "budget margin", {.min = 0, .min_open = true}},
        {"burst", ParamType::kUint, "2", "slots jammed per observed success", {.min = 1}}},
       make_reactive});
}

JammerRegistry& JammerRegistry::instance() {
  static JammerRegistry registry;
  return registry;
}

}  // namespace cr
