#include "protocols/cd_backon.hpp"

#include <cstdio>

namespace cr {

std::string cd_backon_options_error(const CdBackonOptions& opts) {
  char buf[128];
  buf[0] = '\0';
  // Negated comparisons, so a NaN field is refused too.
  if (!(opts.p0 > 0.0 && opts.p0 <= 1.0))
    std::snprintf(buf, sizeof buf, "p0 must be in (0, 1], got %g", opts.p0);
  else if (!(opts.p_max > 0.0 && opts.p_max <= 1.0))
    std::snprintf(buf, sizeof buf, "p_max must be in (0, 1], got %g", opts.p_max);
  else if (!(opts.p_min > 0.0 && opts.p_min <= opts.p_max))
    std::snprintf(buf, sizeof buf, "p_min must be in (0, p_max] = (0, %g], got %g", opts.p_max,
                  opts.p_min);
  else if (!(opts.mult > 1.0))
    std::snprintf(buf, sizeof buf, "mult must be > 1, got %g", opts.mult);
  return buf;
}

bool CdBackonNode::on_slot(slot_t, Rng& rng) { return rng.bernoulli(p_); }

void CdBackonNode::on_feedback(slot_t, Feedback fb, bool, bool) {
  p_ = cd_backon_next(opts_, p_,
                      fb == Feedback::kSuccess ? CdFeedback::kSuccess : CdFeedback::kCollision);
}

void CdBackonNode::on_feedback_cd(slot_t, CdFeedback fb, bool, bool) {
  p_ = cd_backon_next(opts_, p_, fb);
}

namespace {

class CdBackonFactory final : public ProtocolFactory {
 public:
  explicit CdBackonFactory(const CdBackonOptions& opts) : opts_(opts) {}

  std::unique_ptr<NodeProtocol> spawn(node_id, slot_t, Rng&) override {
    return std::make_unique<CdBackonNode>(opts_);
  }
  std::string name() const override {
    return opts_.collision_detection ? "cd-backon" : "cd-backon-no-cd";
  }

 private:
  CdBackonOptions opts_;
};

}  // namespace

std::unique_ptr<ProtocolFactory> cd_backon_factory(const CdBackonOptions& opts) {
  return std::make_unique<CdBackonFactory>(opts);
}

}  // namespace cr
