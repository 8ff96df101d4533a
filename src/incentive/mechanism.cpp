#include "incentive/mechanism.h"

#include <climits>

#include "common/error.h"
#include "common/strings.h"
#include "incentive/fixed_mechanism.h"
#include "incentive/on_demand_mechanism.h"
#include "incentive/participation_mechanism.h"
#include "incentive/steered_mechanism.h"

namespace mcs::incentive {

void IncentiveMechanism::reprice(const model::World& world, Round k,
                                 const std::vector<std::size_t>& dirty_tasks) {
  (void)dirty_tasks;
  update_rewards(world, k);
}

Json IncentiveMechanism::state_to_json() const {
  Json state = Json::object();
  state["rewards"] = money_array(rewards_);
  return state;
}

void IncentiveMechanism::restore_state(const Json& state) {
  rewards_ = money_vector(state.at("rewards"));
}

Json IncentiveMechanism::money_array(const std::vector<Money>& values) {
  Json::Array out;
  out.reserve(values.size());
  for (const Money v : values) out.emplace_back(v);
  return Json(std::move(out));
}

std::vector<Money> IncentiveMechanism::money_vector(const Json& array) {
  const Json::Array& in = array.as_array();
  std::vector<Money> out;
  out.reserve(in.size());
  for (const Json& v : in) out.push_back(v.as_number());
  return out;
}

Json IncentiveMechanism::int_array(const std::vector<int>& values) {
  Json::Array out;
  out.reserve(values.size());
  for (const int v : values) out.emplace_back(v);
  return Json(std::move(out));
}

std::vector<int> IncentiveMechanism::int_vector(const Json& array) {
  const Json::Array& in = array.as_array();
  std::vector<int> out;
  out.reserve(in.size());
  for (const Json& v : in) {
    const long long i = v.as_int();
    MCS_CHECK(i >= INT_MIN && i <= INT_MAX, "integer out of range");
    out.push_back(static_cast<int>(i));
  }
  return out;
}

MechanismKind parse_mechanism(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "on-demand" || lower == "ondemand" || lower == "demand") {
    return MechanismKind::kOnDemand;
  }
  if (lower == "fixed") return MechanismKind::kFixed;
  if (lower == "steered") return MechanismKind::kSteered;
  if (lower == "participation" || lower == "radp") {
    return MechanismKind::kParticipation;
  }
  throw Error("unknown incentive mechanism: " + name);
}

const char* mechanism_name(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kOnDemand: return "on-demand";
    case MechanismKind::kFixed: return "fixed";
    case MechanismKind::kSteered: return "steered";
    case MechanismKind::kParticipation: return "participation";
  }
  return "?";
}

std::unique_ptr<IncentiveMechanism> make_mechanism(
    MechanismKind kind, const model::World& world,
    const MechanismParams& params, Rng& rng) {
  const RewardRule rule = RewardRule::from_budget(
      params.platform_budget, world.total_required(), params.lambda,
      params.demand_levels);
  switch (kind) {
    case MechanismKind::kOnDemand:
      return std::make_unique<OnDemandMechanism>(
          DemandIndicator::with_paper_defaults(),
          DemandLevelScale(params.demand_levels), rule);
    case MechanismKind::kFixed:
      return std::make_unique<FixedMechanism>(rule, world.num_tasks(), rng);
    case MechanismKind::kSteered:
      return std::make_unique<SteeredMechanism>(
          params.steered_rc, params.steered_mu, params.steered_delta);
    case MechanismKind::kParticipation:
      return std::make_unique<ParticipationMechanism>(
          rule, params.participation_target, params.participation_band);
  }
  throw Error("unknown incentive mechanism kind");
}

}  // namespace mcs::incentive
