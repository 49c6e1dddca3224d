#include "fault/models/fault_model.h"

#include <array>

namespace encore::fault::models {
namespace {

// --- Fault models ---------------------------------------------------------

class RegBitModel final : public FaultModel {
 public:
  std::string_view name() const override { return "reg-bit"; }
  FaultModelId id() const override { return FaultModelId::RegBit; }
  std::string_view description() const override {
    return "single bit flip in one value instruction's destination";
  }
  InjectionPlan draw(Rng &rng, std::uint64_t value_instrs) const override {
    // Draw order (target, then bit) matches the pre-registry injector so
    // the default scenario stays byte-identical to historical campaigns.
    InjectionPlan plan;
    plan.kind = InjectionPlan::Kind::RegFlip;
    plan.target_value_index = rng.below(value_instrs);
    plan.xor_mask = 1ULL << rng.below(64);
    return plan;
  }
};

class MultiBitModel final : public FaultModel {
 public:
  std::string_view name() const override { return "multi-bit"; }
  FaultModelId id() const override { return FaultModelId::MultiBit; }
  std::string_view description() const override {
    return "2-4 adjacent bit flips in one destination";
  }
  InjectionPlan draw(Rng &rng, std::uint64_t value_instrs) const override {
    InjectionPlan plan;
    plan.kind = InjectionPlan::Kind::RegFlip;
    plan.target_value_index = rng.below(value_instrs);
    const std::uint64_t width = 2 + rng.below(3);  // 2..4 adjacent bits
    const std::uint64_t start = rng.below(65 - width);
    plan.xor_mask = ((1ULL << width) - 1) << start;
    return plan;
  }
};

class CfBranchModel final : public FaultModel {
 public:
  std::string_view name() const override { return "cf-branch"; }
  FaultModelId id() const override { return FaultModelId::CfBranch; }
  std::string_view description() const override {
    return "redirect a taken branch to a wrong same-function block";
  }
  InjectionPlan draw(Rng &rng, std::uint64_t value_instrs) const override {
    // The anchor is a value-instruction index; the strike happens at the
    // first branch/jump executed after it. The selector picks the wrong
    // block at the strike site (modulo the function's block count there).
    InjectionPlan plan;
    plan.kind = InjectionPlan::Kind::BranchRedirect;
    plan.target_value_index = rng.below(value_instrs);
    plan.selector = rng();
    return plan;
  }
  bool anchoredStrike() const override { return false; }
};

class MemBusModel final : public FaultModel {
 public:
  std::string_view name() const override { return "mem-bus"; }
  FaultModelId id() const override { return FaultModelId::MemBus; }
  std::string_view description() const override {
    return "flip a bit in a loaded/stored word or its pre-validation address";
  }
  InjectionPlan draw(Rng &rng, std::uint64_t value_instrs) const override {
    // Selector encoding, resolved at the first load/store after the
    // anchor: bit 0 chooses address (1) vs data (0) fault; bits 1..6 give
    // the bit index (&31 for the 32-bit word offset, 0..63 for data).
    InjectionPlan plan;
    plan.kind = InjectionPlan::Kind::MemBus;
    plan.target_value_index = rng.below(value_instrs);
    plan.selector = rng();
    return plan;
  }
  bool anchoredStrike() const override { return false; }
};

// --- Detectors ------------------------------------------------------------

class AnalyticDetector final : public Detector {
 public:
  std::string_view name() const override { return "analytic"; }
  DetectorId id() const override { return DetectorId::Analytic; }
  std::string_view description() const override {
    return "uniform-latency analytical Dmax detection";
  }
  DetectionPlan draw(Rng &rng, std::uint64_t dmax) const override {
    DetectionPlan plan;
    plan.kind = DetectionPlan::Kind::Latency;
    plan.latency = dmax == 0 ? 0 : rng.below(dmax + 1);
    return plan;
  }
};

class ReplayDetector final : public Detector {
 public:
  std::string_view name() const override { return "replay"; }
  DetectorId id() const override { return DetectorId::Replay; }
  std::string_view description() const override {
    return "RepTFD-style windowed replay-and-diff detection";
  }
  DetectionPlan draw(Rng &, std::uint64_t dmax) const override {
    // Draws nothing: the window is the configured Dmax, and the detection
    // point is the next absolute window boundary after injection. Keeping
    // the Rng untouched means trial alignment with the analytic detector
    // is broken only by the detector's own identity, not by draw skew.
    DetectionPlan plan;
    plan.kind = DetectionPlan::Kind::ReplayWindow;
    plan.window = dmax == 0 ? 1 : dmax;
    return plan;
  }
  bool reportsReplayCost() const override { return true; }
};

const RegBitModel kRegBit;
const MultiBitModel kMultiBit;
const CfBranchModel kCfBranch;
const MemBusModel kMemBus;
const AnalyticDetector kAnalytic;
const ReplayDetector kReplay;

constexpr std::array<const FaultModel *, 4> kFaultModels = {
    &kRegBit, &kMultiBit, &kCfBranch, &kMemBus};
constexpr std::array<const Detector *, 2> kDetectors = {&kAnalytic, &kReplay};

}  // namespace

const FaultModel *findFaultModel(std::string_view name) {
  for (const FaultModel *model : kFaultModels)
    if (model->name() == name) return model;
  return nullptr;
}

const FaultModel *faultModelById(std::uint32_t id) {
  for (const FaultModel *model : kFaultModels)
    if (static_cast<std::uint32_t>(model->id()) == id) return model;
  return nullptr;
}

const Detector *findDetector(std::string_view name) {
  for (const Detector *detector : kDetectors)
    if (detector->name() == name) return detector;
  return nullptr;
}

const Detector *detectorById(std::uint32_t id) {
  for (const Detector *detector : kDetectors)
    if (static_cast<std::uint32_t>(detector->id()) == id) return detector;
  return nullptr;
}

const FaultModel *defaultFaultModel() { return &kRegBit; }
const Detector *defaultDetector() { return &kAnalytic; }

std::vector<std::string_view> faultModelNames() {
  std::vector<std::string_view> names;
  for (const FaultModel *model : kFaultModels) names.push_back(model->name());
  return names;
}

std::vector<std::string_view> detectorNames() {
  std::vector<std::string_view> names;
  for (const Detector *detector : kDetectors)
    names.push_back(detector->name());
  return names;
}

}  // namespace encore::fault::models
