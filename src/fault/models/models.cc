#include "fault/models/fault_model.h"

namespace encore::fault::models {
namespace {

// Table order is the order of the name lists; the first row of each
// table is the default.
constexpr FaultModel kFaultModels[] = {
    {FaultModelId::RegBit, "reg-bit",
     "single bit flip in one value instruction's destination"},
    {FaultModelId::MultiBit, "multi-bit",
     "2-4 adjacent bit flips in one destination"},
    {FaultModelId::CfBranch, "cf-branch",
     "redirect a taken branch to a wrong same-function block"},
    {FaultModelId::MemBus, "mem-bus",
     "flip a bit in a loaded/stored word or its pre-validation address"},
};

constexpr Detector kDetectors[] = {
    {DetectorId::Analytic, "analytic",
     "uniform-latency analytical Dmax detection"},
    {DetectorId::Replay, "replay",
     "RepTFD-style windowed replay-and-diff detection"},
};

template <typename Row, std::size_t N>
const Row *findByName(const Row (&table)[N], std::string_view name) {
  for (const Row &row : table)
    if (row.name() == name) return &row;
  return nullptr;
}

template <typename Row, std::size_t N>
const Row *findById(const Row (&table)[N], std::uint32_t id) {
  for (const Row &row : table)
    if (static_cast<std::uint32_t>(row.id()) == id) return &row;
  return nullptr;
}

template <typename Row, std::size_t N>
std::vector<std::string_view> namesOf(const Row (&table)[N]) {
  std::vector<std::string_view> names;
  for (const Row &row : table) names.push_back(row.name());
  return names;
}

}  // namespace

InjectionPlan FaultModel::draw(Rng &rng, std::uint64_t value_instrs) const {
  // The anchor first, then the model's own draws: for reg-bit this is
  // the pre-registry (target, bit) order, so the default scenario stays
  // byte-identical to historical campaigns.
  InjectionPlan plan;
  plan.target_value_index = rng.below(value_instrs);
  switch (id_) {
    case FaultModelId::RegBit:
      plan.xor_mask = 1ULL << rng.below(64);
      break;
    case FaultModelId::MultiBit: {
      const std::uint64_t width = 2 + rng.below(3);  // 2..4 adjacent bits
      const std::uint64_t start = rng.below(65 - width);
      plan.xor_mask = ((1ULL << width) - 1) << start;
      break;
    }
    case FaultModelId::CfBranch:
      // The strike happens at the first branch/jump executed after the
      // anchor; the selector picks the wrong block there (modulo the
      // function's block count).
      plan.kind = InjectionPlan::Kind::BranchRedirect;
      plan.selector = rng();
      break;
    case FaultModelId::MemBus:
      // Resolved at the first load/store after the anchor: selector bit 0
      // chooses address (1) vs data (0) fault; bits 1..6 give the bit
      // index (&31 for the 32-bit word offset, 0..63 for data).
      plan.kind = InjectionPlan::Kind::MemBus;
      plan.selector = rng();
      break;
  }
  return plan;
}

DetectionPlan Detector::draw(Rng &rng, std::uint64_t dmax) const {
  DetectionPlan plan;
  switch (id_) {
    case DetectorId::Analytic:
      plan.latency = dmax == 0 ? 0 : rng.below(dmax + 1);
      break;
    case DetectorId::Replay:
      // Draws nothing: the window is the configured Dmax, and the
      // detection point is the next absolute window boundary after
      // injection. Keeping the Rng untouched means trial alignment with
      // the analytic detector is broken only by the detector's own
      // identity, not by draw skew.
      plan.kind = DetectionPlan::Kind::ReplayWindow;
      plan.window = dmax == 0 ? 1 : dmax;
      break;
  }
  return plan;
}

const FaultModel *findFaultModel(std::string_view name) {
  return findByName(kFaultModels, name);
}

const FaultModel *faultModelById(std::uint32_t id) {
  return findById(kFaultModels, id);
}

const Detector *findDetector(std::string_view name) {
  return findByName(kDetectors, name);
}

const Detector *detectorById(std::uint32_t id) {
  return findById(kDetectors, id);
}

const FaultModel *defaultFaultModel() { return &kFaultModels[0]; }
const Detector *defaultDetector() { return &kDetectors[0]; }

std::vector<std::string_view> faultModelNames() {
  return namesOf(kFaultModels);
}

std::vector<std::string_view> detectorNames() { return namesOf(kDetectors); }

}  // namespace encore::fault::models
