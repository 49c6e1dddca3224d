#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "support/rng.h"

namespace encore::fault::models {

// Stable numeric identity for a fault model. These values are written
// into trial-store headers, so they are part of the durable format:
// never renumber, only append.
enum class FaultModelId : std::uint32_t {
  RegBit = 0,
  MultiBit = 1,
  CfBranch = 2,
  MemBus = 3,
};

enum class DetectorId : std::uint32_t {
  Analytic = 0,
  Replay = 1,
};

// A fully drawn per-trial injection plan. All models anchor their strike
// on a *value-instruction index* (the same counter the golden run and the
// snapshot tier index by), so snapshot seek stays valid for every model:
// the prefix before the anchor is bit-identical to the golden run.
struct InjectionPlan {
  enum class Kind : std::uint8_t {
    // Flip xor_mask bits in the destination of value instruction
    // target_value_index (the classic Encore model, and multi-bit).
    RegFlip,
    // At the first taken branch/jump executed after the anchor, redirect
    // control to a wrong same-function block chosen by selector.
    BranchRedirect,
    // At the first load/store executed after the anchor, corrupt either
    // the data word or the (pre-validation) address, per selector.
    MemBus,
  };
  Kind kind = Kind::RegFlip;
  std::uint64_t target_value_index = 0;
  std::uint64_t xor_mask = 0;  // RegFlip: destination bits to flip.
  std::uint64_t selector = 0;  // BranchRedirect/MemBus: site-resolved draw.
};

// A fully drawn per-trial detection plan.
struct DetectionPlan {
  enum class Kind : std::uint8_t {
    // Detection fires `latency` dynamic instructions after injection (or
    // earlier if the fault turns symptomatic) — the analytical Dmax model.
    Latency,
    // RepTFD-style replay detection: execution is checked at absolute
    // dyn-instruction window boundaries (multiples of `window`); a window
    // whose replay diff comes back dirty is charged `window` (or the
    // partial window on a hard error) replayed instructions.
    ReplayWindow,
  };
  Kind kind = Kind::Latency;
  std::uint64_t latency = 0;
  std::uint64_t window = 0;
};

// One row of the fault-model table: durable id, CLI name, description.
// Everything a model does is a function of its id. Determinism
// contract: draw() consumes Rng draws as a pure function of the Rng
// state and `value_instrs` — never of global or per-run state — so that
// counter-seeded trials (Rng::forStream(seed, trial)) are bit-identical
// at any --jobs and across kill→resume / shard+merge.
class FaultModel {
 public:
  constexpr FaultModel(FaultModelId id, std::string_view name,
                       std::string_view description)
      : id_(id), name_(name), description_(description) {}

  FaultModelId id() const { return id_; }
  std::string_view name() const { return name_; }
  std::string_view description() const { return description_; }
  InjectionPlan draw(Rng &rng, std::uint64_t value_instrs) const;
  // True when the strike site is exactly the anchored value instruction
  // (reg-bit, multi-bit). False when the strike drifts to the next
  // matching site after the anchor (cf-branch, mem-bus) — such models
  // cannot be attributed to planner groups by anchor, so compositional
  // sidecar reuse is refused for them.
  bool anchoredStrike() const {
    return id_ == FaultModelId::RegBit || id_ == FaultModelId::MultiBit;
  }

 private:
  FaultModelId id_;
  std::string_view name_;
  std::string_view description_;
};

// One row of the detector table. Same determinism contract as
// FaultModel::draw.
class Detector {
 public:
  constexpr Detector(DetectorId id, std::string_view name,
                     std::string_view description)
      : id_(id), name_(name), description_(description) {}

  DetectorId id() const { return id_; }
  std::string_view name() const { return name_; }
  std::string_view description() const { return description_; }
  DetectionPlan draw(Rng &rng, std::uint64_t dmax) const;
  // True when trials under this detector accrue replay cost that should
  // surface in aggregates (the replay detector).
  bool reportsReplayCost() const { return id_ == DetectorId::Replay; }

 private:
  DetectorId id_;
  std::string_view name_;
  std::string_view description_;
};

// Table lookups. All return pointers into the two static tables;
// nullptr on unknown name/id.
const FaultModel *findFaultModel(std::string_view name);
const FaultModel *faultModelById(std::uint32_t id);
const Detector *findDetector(std::string_view name);
const Detector *detectorById(std::uint32_t id);

// The pre-subsystem defaults: single-bit register flip under the
// analytical Dmax detector.
const FaultModel *defaultFaultModel();
const Detector *defaultDetector();

// Names in table order, for CLI help and error messages.
std::vector<std::string_view> faultModelNames();
std::vector<std::string_view> detectorNames();

}  // namespace encore::fault::models
