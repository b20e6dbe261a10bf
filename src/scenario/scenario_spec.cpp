#include "scenario/scenario_spec.hpp"

#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "sched/coordinator.hpp"
#include "sim/cluster.hpp"
#include "sim/qos.hpp"
#include "util/csv.hpp"

namespace bml {

namespace {

std::string trim(const std::string& s) {
  const std::size_t start = s.find_first_not_of(" \t\r");
  if (start == std::string::npos) return "";
  const std::size_t end = s.find_last_not_of(" \t\r");
  return s.substr(start, end - start + 1);
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true") return true;
  if (value == "false") return false;
  throw std::runtime_error("scenario: " + key + " must be true or false, got '" +
                           value + "'");
}

/// Strict numeric parsing that names the offending key. The underlying
/// parse_double / parse_int (util/csv.hpp) require the whole token to be
/// consumed — `3x` is an error, never silently `3` — but their messages
/// only carry the value; spec errors must say which key held it.
double parse_number(const std::string& key, const std::string& value) {
  try {
    return parse_double(value);
  } catch (const std::runtime_error&) {
    throw std::runtime_error("scenario: " + key + " must be a number, got '" +
                             value + "'");
  }
}

std::uint64_t parse_seed(const std::string& key, const std::string& value) {
  std::int64_t v = 0;
  try {
    v = parse_int(value);
  } catch (const std::runtime_error&) {
    throw std::runtime_error("scenario: " + key +
                             " must be a non-negative integer, got '" + value +
                             "'");
  }
  if (v < 0)
    throw std::runtime_error("scenario: " + key + " must be >= 0");
  return static_cast<std::uint64_t>(v);
}

double parse_fraction(const std::string& key, const std::string& value) {
  const double v = parse_number(key, value);
  if (v < 0.0)
    throw std::runtime_error("scenario: " + key + " must be >= 0");
  return v;
}

int parse_count(const std::string& key, const std::string& value) {
  std::int64_t v = 0;
  try {
    v = parse_int(value);
  } catch (const std::runtime_error&) {
    throw std::runtime_error("scenario: " + key +
                             " must be a non-negative integer, got '" + value +
                             "'");
  }
  if (v < 0)
    throw std::runtime_error("scenario: " + key + " must be >= 0");
  if (v > std::numeric_limits<int>::max())
    throw std::runtime_error(
        "scenario: " + key + " must be <= " +
        std::to_string(std::numeric_limits<int>::max()) + ", got '" + value +
        "'");
  return static_cast<int>(v);
}

double parse_slo_target(const std::string& key, const std::string& value) {
  const double v = parse_number(key, value);
  if (v < 0.0 || v > 1.0)
    throw std::runtime_error("scenario: " + key + " must be in [0, 1]");
  return v;
}

double parse_slo_spare(const std::string& key, const std::string& value) {
  const double v = parse_number(key, value);
  if (!(v > 0.0))
    throw std::runtime_error("scenario: " + key + " must be > 0");
  return v;
}

}  // namespace

void AppSpec::set(const std::string& key, const std::string& value) {
  if (key == "name") {
    name = value;
  } else if (key == "trace") {
    trace = value;
  } else if (key == "scheduler") {
    scheduler = value;
  } else if (key == "predictor") {
    predictor = value;
  } else if (key == "qos") {
    (void)parse_qos_class(value);  // validate now, fail loudly here
    qos = value;
  } else if (key == "share") {
    const double v = parse_number("app share", value);
    if (!(v > 0.0))
      throw std::runtime_error("scenario: app share must be > 0");
    share = v;
  } else if (key == "fault_domain") {
    fault_domain = value;
  } else if (key == "replicas") {
    replicas = parse_count("app replicas", value);
    if (replicas < 1)
      throw std::runtime_error("scenario: app replicas must be >= 1");
  } else if (key == "slo.availability") {
    slo_availability = parse_slo_target("app slo.availability", value);
  } else if (key == "slo.spare") {
    slo_spare = parse_slo_spare("app slo.spare", value);
  } else if (key == "priority") {
    priority = parse_count("app priority", value);
  } else if (key == "arrive") {
    arrive = static_cast<std::int64_t>(parse_seed("app arrive", value));
  } else if (key == "depart") {
    depart = static_cast<std::int64_t>(parse_seed("app depart", value));
    if (depart < 1)
      throw std::runtime_error("scenario: app depart must be >= 1");
  } else if (key.starts_with("trace.")) {
    trace_params[key.substr(6)] = value;
  } else if (key.starts_with("scheduler.")) {
    scheduler_params[key.substr(10)] = value;
  } else if (key.starts_with("predictor.")) {
    predictor_params[key.substr(10)] = value;
  } else {
    throw std::runtime_error("scenario: unknown app key '" + key + "'");
  }
}

namespace {

/// Splits an `app<i>.<rest>` sweep/assignment key; returns false when the
/// key does not use the app prefix at all, throws when it does but the
/// index is malformed.
bool split_app_key(const std::string& key, std::size_t& index,
                   std::string& rest) {
  if (!key.starts_with("app")) return false;
  std::size_t pos = 3;
  if (pos >= key.size() || key[pos] < '0' || key[pos] > '9') return false;
  std::size_t value = 0;
  while (pos < key.size() && key[pos] >= '0' && key[pos] <= '9') {
    value = value * 10 + static_cast<std::size_t>(key[pos] - '0');
    ++pos;
  }
  if (pos >= key.size() || key[pos] != '.')
    throw std::runtime_error("scenario: app key '" + key +
                             "' must be app<i>.<key>");
  index = value;
  rest = key.substr(pos + 1);
  return true;
}

}  // namespace

void ScenarioSpec::set(const std::string& key, const std::string& value) {
  {
    std::size_t app_index = 0;
    std::string app_key;
    if (split_app_key(key, app_index, app_key)) {
      if (app_index >= apps.size())
        throw std::runtime_error(
            "scenario: key '" + key + "' addresses app " +
            std::to_string(app_index) + " but the spec declares " +
            std::to_string(apps.size()) + " [app] section(s)");
      apps[app_index].set(app_key, value);
      return;
    }
  }
  if (key == "name") {
    name = value;
  } else if (key == "catalog") {
    catalog = value;
  } else if (key == "trace") {
    trace = value;
  } else if (key == "scheduler") {
    scheduler = value;
  } else if (key == "predictor") {
    predictor = value;
  } else if (key == "design.max_rate") {
    if (value != "trace-peak" && value != "default")
      (void)parse_number(key, value);  // numbers validate now, fail loudly
    design_max_rate = value;
  } else if (key == "design.solver") {
    if (value != "greedy" && value != "exact-dp")
      throw std::runtime_error(
          "scenario: design.solver must be greedy or exact-dp, got '" + value +
          "'");
    design_solver = value;
  } else if (key == "qos") {
    (void)parse_qos_class(value);  // validate now, fail loudly here
    qos = value;
  } else if (key == "graceful_off") {
    graceful_off = parse_bool(key, value);
  } else if (key == "event_driven") {
    event_driven = parse_bool(key, value);
  } else if (key == "faults.boot_time_jitter") {
    boot_time_jitter = parse_fraction(key, value);
    if (boot_time_jitter > FaultModel::kMaxBootTimeJitter) {
      std::ostringstream os;
      os << "scenario: " << key << " must be <= "
         << FaultModel::kMaxBootTimeJitter << ", got '" << value << "'";
      throw std::runtime_error(os.str());
    }
  } else if (key == "faults.boot_failure_prob") {
    boot_failure_prob = parse_slo_target(key, value);
  } else if (key == "faults.mtbf") {
    fault_mtbf = parse_fraction(key, value);
  } else if (key == "faults.mttr") {
    fault_mttr = parse_fraction(key, value);
  } else if (key == "faults.groups") {
    fault_groups = parse_count(key, value);
  } else if (key == "faults.group_mtbf") {
    fault_group_mtbf = parse_fraction(key, value);
  } else if (key == "faults.group_mttr") {
    fault_group_mttr = parse_fraction(key, value);
  } else if (key == "faults.crews") {
    fault_crews = parse_count(key, value);
  } else if (key == "faults.seed") {
    fault_seed = static_cast<std::int64_t>(parse_seed(key, value));
  } else if (key == "slo.window") {
    slo_window = parse_number(key, value);
    if (slo_window < 1.0)
      throw std::runtime_error("scenario: slo.window must be >= 1 second");
  } else if (key == "slo.availability") {
    slo_availability = parse_slo_target(key, value);
  } else if (key == "slo.spare") {
    slo_spare = parse_slo_spare(key, value);
  } else if (key == "degrade.overload_factor") {
    degrade_overload_factor = parse_fraction(key, value);
  } else if (key == "degrade.penalty") {
    degrade_penalty = parse_slo_target(key, value);
  } else if (key == "churn.interarrival") {
    churn_interarrival = parse_fraction(key, value);
  } else if (key == "churn.lifetime") {
    churn_lifetime = parse_fraction(key, value);
  } else if (key == "churn.template") {
    churn_template = parse_count(key, value);
  } else if (key == "churn.max") {
    churn_max = parse_count(key, value);
  } else if (key == "churn.seed") {
    churn_seed = static_cast<std::int64_t>(parse_seed(key, value));
  } else if (key == "priority") {
    priority = parse_count(key, value);
  } else if (key == "obs.metrics") {
    obs_metrics = parse_bool(key, value);
  } else if (key == "obs.trace") {
    obs_trace = parse_bool(key, value);
  } else if (key == "obs.sample") {
    obs_sample = parse_count(key, value);
    if (obs_sample < 1)
      throw std::runtime_error("scenario: obs.sample must be >= 1 second");
  } else if (key == "seed") {
    seed = parse_seed(key, value);
  } else if (key == "coordinator") {
    (void)parse_coordinator_mode(value);  // validate now, fail loudly here
    coordinator = value;
  } else if (key == "coordinator.budget") {
    // Numbers validate now, fail loudly. The coordinator reads a budget
    // <= 0 as none, which clamps nothing: the `sum` mode, not a budget.
    if (value != "design-max" && !(parse_number(key, value) > 0.0))
      throw std::runtime_error(
          "scenario: coordinator.budget must be > 0 or design-max (an "
          "unclamped fleet is coordinator = sum), got '" +
          value + "'");
    coordinator_budget = value;
  } else if (key.starts_with("catalog.")) {
    catalog_params[key.substr(8)] = value;
  } else if (key.starts_with("trace.")) {
    trace_params[key.substr(6)] = value;
  } else if (key.starts_with("scheduler.")) {
    scheduler_params[key.substr(10)] = value;
  } else if (key.starts_with("predictor.")) {
    predictor_params[key.substr(10)] = value;
  } else {
    throw std::runtime_error("scenario: unknown key '" + key + "'");
  }
}

ScenarioSpec parse_scenario(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  // Index of the [app] section the cursor is in; top level until the
  // first section.
  std::ptrdiff_t current_app = -1;
  // The line that set each key of the current section.
  std::map<std::string, std::size_t> set_on_line;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::string body = trim(line);
    if (body.empty()) continue;

    if (body == "[app]") {
      spec.apps.emplace_back();
      current_app = static_cast<std::ptrdiff_t>(spec.apps.size()) - 1;
      set_on_line.clear();
      continue;
    }
    if (body.starts_with("[") && body.ends_with("]"))
      throw std::runtime_error("scenario: line " + std::to_string(line_number) +
                               ": unknown section '" + body +
                               "' (only [app] is supported)");

    bool is_sweep = false;
    if (body.starts_with("sweep ") || body.starts_with("sweep\t")) {
      is_sweep = true;
      body = trim(body.substr(6));
    }

    const std::size_t eq = body.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("scenario: line " + std::to_string(line_number) +
                               ": expected 'key = value'");
    const std::string key = trim(body.substr(0, eq));
    const std::string value = trim(body.substr(eq + 1));
    if (key.empty())
      throw std::runtime_error("scenario: line " + std::to_string(line_number) +
                               ": empty key");
    if (!is_sweep) {
      const auto [it, first] = set_on_line.emplace(key, line_number);
      if (!first)
        throw std::runtime_error(
            "scenario: line " + std::to_string(line_number) + ": key '" + key +
            "' is already set on line " + std::to_string(it->second));
    }
    try {
      if (is_sweep) {
        SweepAxis axis{key, {}};
        std::istringstream values(value);
        std::string v;
        while (std::getline(values, v, ',')) {
          v = trim(v);
          if (!v.empty()) axis.values.push_back(v);
        }
        if (axis.values.empty())
          throw std::runtime_error("scenario: sweep axis '" + key +
                                   "' has no values");
        for (const SweepAxis& existing : spec.sweeps)
          if (existing.key == key)
            throw std::runtime_error("scenario: duplicate sweep axis '" + key +
                                     "'");
        // Every axis value must be assignable; probing now surfaces typos
        // at parse time instead of mid-sweep.
        for (const std::string& candidate : axis.values) {
          ScenarioSpec probe = spec;
          probe.set(key, candidate);
        }
        spec.sweeps.push_back(std::move(axis));
      } else if (current_app >= 0) {
        spec.apps[static_cast<std::size_t>(current_app)].set(key, value);
      } else {
        spec.set(key, value);
      }
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(std::string(e.what()) + " (line " +
                               std::to_string(line_number) + ")");
    }
  }
  return spec;
}

namespace {

void write_params(std::ostringstream& os, const std::string& prefix,
                  const std::map<std::string, std::string>& params) {
  for (const auto& [key, value] : params)
    os << prefix << '.' << key << " = " << value << '\n';
}

}  // namespace

std::string write_scenario(const ScenarioSpec& spec) {
  std::ostringstream os;
  os << "name = " << spec.name << '\n';
  os << "catalog = " << spec.catalog << '\n';
  write_params(os, "catalog", spec.catalog_params);
  os << "trace = " << spec.trace << '\n';
  write_params(os, "trace", spec.trace_params);
  os << "scheduler = " << spec.scheduler << '\n';
  write_params(os, "scheduler", spec.scheduler_params);
  os << "predictor = " << spec.predictor << '\n';
  write_params(os, "predictor", spec.predictor_params);
  os << "design.max_rate = " << spec.design_max_rate << '\n';
  os << "design.solver = " << spec.design_solver << '\n';
  os << "qos = " << spec.qos << '\n';
  os << "graceful_off = " << (spec.graceful_off ? "true" : "false") << '\n';
  os << "event_driven = " << (spec.event_driven ? "true" : "false") << '\n';
  std::ostringstream numbers;
  numbers.precision(17);
  numbers << "faults.boot_time_jitter = " << spec.boot_time_jitter << '\n'
          << "faults.boot_failure_prob = " << spec.boot_failure_prob << '\n'
          << "faults.mtbf = " << spec.fault_mtbf << '\n'
          << "faults.mttr = " << spec.fault_mttr << '\n'
          << "faults.groups = " << spec.fault_groups << '\n'
          << "faults.group_mtbf = " << spec.fault_group_mtbf << '\n'
          << "faults.group_mttr = " << spec.fault_group_mttr << '\n'
          << "faults.crews = " << spec.fault_crews << '\n';
  os << numbers.str();
  if (spec.fault_seed >= 0) os << "faults.seed = " << spec.fault_seed << '\n';
  std::ostringstream slo;
  slo.precision(17);
  slo << "slo.window = " << spec.slo_window << '\n'
      << "slo.availability = " << spec.slo_availability << '\n'
      << "slo.spare = " << spec.slo_spare << '\n';
  os << slo.str();
  // Degrade / priority / observability keys are emitted only when
  // non-default, keeping the canonical form of classic specs stable (same
  // pattern as faults.seed).
  if (spec.degrade_overload_factor != 0.0 || spec.degrade_penalty != 0.5) {
    std::ostringstream degrade;
    degrade.precision(17);
    degrade << "degrade.overload_factor = " << spec.degrade_overload_factor
            << '\n'
            << "degrade.penalty = " << spec.degrade_penalty << '\n';
    os << degrade.str();
  }
  if (spec.churn_interarrival != 0.0 || spec.churn_lifetime != 0.0) {
    std::ostringstream churn;
    churn.precision(17);
    churn << "churn.interarrival = " << spec.churn_interarrival << '\n'
          << "churn.lifetime = " << spec.churn_lifetime << '\n';
    os << churn.str();
  }
  if (spec.churn_template != 0)
    os << "churn.template = " << spec.churn_template << '\n';
  if (spec.churn_max != 0) os << "churn.max = " << spec.churn_max << '\n';
  if (spec.churn_seed >= 0) os << "churn.seed = " << spec.churn_seed << '\n';
  if (spec.priority != 0) os << "priority = " << spec.priority << '\n';
  if (spec.obs_metrics) os << "obs.metrics = true\n";
  if (spec.obs_trace) os << "obs.trace = true\n";
  if (spec.obs_sample != 60) os << "obs.sample = " << spec.obs_sample << '\n';
  os << "seed = " << spec.seed << '\n';
  os << "coordinator = " << spec.coordinator << '\n';
  os << "coordinator.budget = " << spec.coordinator_budget << '\n';
  for (const AppSpec& app : spec.apps) {
    os << "[app]\n";
    if (!app.name.empty()) os << "name = " << app.name << '\n';
    os << "trace = " << app.trace << '\n';
    write_params(os, "trace", app.trace_params);
    os << "scheduler = " << app.scheduler << '\n';
    write_params(os, "scheduler", app.scheduler_params);
    os << "predictor = " << app.predictor << '\n';
    write_params(os, "predictor", app.predictor_params);
    os << "qos = " << app.qos << '\n';
    std::ostringstream share;
    share.precision(17);
    share << "share = " << app.share << '\n';
    os << share.str();
    if (!app.fault_domain.empty())
      os << "fault_domain = " << app.fault_domain << '\n';
    if (app.priority != 0) os << "priority = " << app.priority << '\n';
    if (app.replicas != 1) os << "replicas = " << app.replicas << '\n';
    if (app.arrive != 0) os << "arrive = " << app.arrive << '\n';
    if (app.depart >= 0) os << "depart = " << app.depart << '\n';
    if (app.slo_availability > 0.0 || app.slo_spare != 0.25) {
      std::ostringstream app_slo;
      app_slo.precision(17);
      app_slo << "slo.availability = " << app.slo_availability << '\n'
              << "slo.spare = " << app.slo_spare << '\n';
      os << app_slo.str();
    }
  }
  for (const SweepAxis& axis : spec.sweeps) {
    os << "sweep " << axis.key << " = ";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) os << ',';
      os << axis.values[i];
    }
    os << '\n';
  }
  return os.str();
}

ScenarioSpec load_scenario(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("load_scenario: cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario(buffer.str());
}

void save_scenario(const ScenarioSpec& spec,
                   const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("save_scenario: cannot open " + path.string());
  out << write_scenario(spec);
}

}  // namespace bml
