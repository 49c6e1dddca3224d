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

// A fault model draws an injection plan for one trial. Determinism
// contract: draw() must consume Rng draws as a pure function of the Rng
// state and `value_instrs` — never of global or per-run state — so that
// counter-seeded trials (Rng::forStream(seed, trial)) are bit-identical
// at any --jobs and across kill→resume / shard+merge.
class FaultModel {
 public:
  virtual ~FaultModel() = default;
  virtual std::string_view name() const = 0;
  virtual FaultModelId id() const = 0;
  virtual std::string_view description() const = 0;
  virtual InjectionPlan draw(Rng &rng, std::uint64_t value_instrs) const = 0;
  // True when the strike site is exactly the anchored value instruction
  // (reg-bit, multi-bit). False when the strike drifts to the next
  // matching site after the anchor (cf-branch, mem-bus) — such models
  // cannot be attributed to planner groups by anchor, so compositional
  // sidecar reuse is refused for them.
  virtual bool anchoredStrike() const { return true; }
};

// A detector draws a detection plan for one trial. Same determinism
// contract as FaultModel::draw.
class Detector {
 public:
  virtual ~Detector() = default;
  virtual std::string_view name() const = 0;
  virtual DetectorId id() const = 0;
  virtual std::string_view description() const = 0;
  virtual DetectionPlan draw(Rng &rng, std::uint64_t dmax) const = 0;
  // True when trials under this detector accrue replay cost that should
  // surface in aggregates (the replay detector).
  virtual bool reportsReplayCost() const { return false; }
};

// Registry lookups. All return pointers to stateless singletons with
// static storage duration; nullptr on unknown name/id.
const FaultModel *findFaultModel(std::string_view name);
const FaultModel *faultModelById(std::uint32_t id);
const Detector *findDetector(std::string_view name);
const Detector *detectorById(std::uint32_t id);

// The pre-subsystem defaults: single-bit register flip under the
// analytical Dmax detector.
const FaultModel *defaultFaultModel();
const Detector *defaultDetector();

// Registered names in registry order, for CLI error messages.
std::vector<std::string_view> faultModelNames();
std::vector<std::string_view> detectorNames();

}  // namespace encore::fault::models
