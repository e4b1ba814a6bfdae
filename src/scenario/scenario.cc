#include "scenario/scenario.h"

#include <array>
#include <cmath>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <variant>

#include "common/logging.h"

namespace tornado {
namespace scenario {

namespace {

// ---- The schema: one table per section, one name table per enum ----------

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Range kAny{};
constexpr Range kNonNegative{0.0};
constexpr Range In(double lo, double hi) { return {lo, hi}; }
constexpr Range AtMost(double hi) { return {-kInf, hi}; }
constexpr bool kRequired = true;

/// Above 2^53 - 1 a JSON number (a double) no longer holds every integer.
constexpr double kMaxExactInteger = 9007199254740991.0;

/// One row of a section's schema: a JSON key bound to a member of `S`.
template <typename S>
struct Field {
  const char* key;
  std::variant<uint64_t S::*, uint32_t S::*, double S::*, bool S::*,
               std::string S::*, NodeRef S::*, std::vector<NodeRef> S::*,
               ScenarioWorkload::Kind S::*, ConsistencyMode S::*,
               TimelineAction::Kind S::*, SubstrateBackend S::*>
      member;
  Range range = kAny;  // numbers only
  bool required = false;
};

template <typename E>
struct EnumName {
  E value;
  const char* name;
};

constexpr EnumName<ScenarioWorkload::Kind> kWorkloadKinds[] = {
    {ScenarioWorkload::Kind::kSssp, "sssp"},
    {ScenarioWorkload::Kind::kPageRank, "pagerank"},
    {ScenarioWorkload::Kind::kKMeans, "kmeans"},
    {ScenarioWorkload::Kind::kSgdSvm, "sgd_svm"},
    {ScenarioWorkload::Kind::kSgdLr, "sgd_lr"},
};
constexpr EnumName<ConsistencyMode> kConsistencyModes[] = {
    {ConsistencyMode::kBoundedAsync, "bounded_async"},
    {ConsistencyMode::kSynchronous, "synchronous"},
    {ConsistencyMode::kFullyAsync, "fully_async"},
};
/// The thread backend is not scriptable (see Scenario::backend).
constexpr EnumName<SubstrateBackend> kBackends[] = {
    {SubstrateBackend::kSim, "sim"},
    {SubstrateBackend::kParSim, "par_sim"},
};

constexpr Field<Scenario> kScenarioFields[] = {
    {"name", &Scenario::name, kAny, kRequired},
    {"description", &Scenario::description},
    {"seed", &Scenario::seed},
    {"backend", &Scenario::backend},
    {"shards", &Scenario::shards, In(1, 64)},
};
constexpr Field<ScenarioCluster> kClusterFields[] = {
    {"processors", &ScenarioCluster::processors, In(1, 256)},
    {"hosts", &ScenarioCluster::hosts, In(1, 256)},
};
constexpr Field<ScenarioWorkload> kWorkloadFields[] = {
    {"kind", &ScenarioWorkload::kind, kAny, kRequired},
    {"tuples", &ScenarioWorkload::tuples, In(100, 10000000)},
    {"rate", &ScenarioWorkload::rate, kPositive},
    {"batch", &ScenarioWorkload::batch, In(1, 100000)},
    {"batch_mode", &ScenarioWorkload::batch_mode},
    {"stream_seed", &ScenarioWorkload::stream_seed},
};
constexpr Field<ScenarioConsistency> kConsistencyFields[] = {
    {"mode", &ScenarioConsistency::mode},
    {"delay_bound", &ScenarioConsistency::delay_bound, In(1, 1000000)},
};
constexpr Field<ScenarioDrive> kDriveFields[] = {
    {"warmup_tuples", &ScenarioDrive::warmup_tuples},
    {"warmup_timeout", &ScenarioDrive::warmup_timeout, kPositive},
    {"pause_ingest", &ScenarioDrive::pause_ingest},
    {"settle_seconds", &ScenarioDrive::settle_seconds, kNonNegative},
    {"query_at_start", &ScenarioDrive::query_at_start},
    {"sample_start_seconds", &ScenarioDrive::sample_start_seconds,
     kNonNegative},
    {"bucket_seconds", &ScenarioDrive::bucket_seconds, kPositive},
    {"sample_count", &ScenarioDrive::sample_count, AtMost(100000)},
    {"wait_for_query", &ScenarioDrive::wait_for_query},
    {"query_timeout", &ScenarioDrive::query_timeout, kPositive},
};
constexpr Field<ScenarioChaos> kChaosFields[] = {
    {"commit_regression_after", &ScenarioChaos::commit_regression_after,
     kNonNegative},
};

/// Every timeline action has these; its kind decides the operands.
constexpr Field<TimelineAction> kActionFields[] = {
    {"action", &TimelineAction::kind, kAny, kRequired},
    {"at", &TimelineAction::at, kNonNegative, kRequired},
};
constexpr Field<TimelineAction> kNode{"node", &TimelineAction::node, kAny,
                                      kRequired};
constexpr Field<TimelineAction> kSrc{"src", &TimelineAction::src, kAny,
                                     kRequired};
constexpr Field<TimelineAction> kDst{"dst", &TimelineAction::dst, kAny,
                                     kRequired};
constexpr Field<TimelineAction> kSide{"side", &TimelineAction::side, kAny,
                                      kRequired};
constexpr Field<TimelineAction> kDowntime{"downtime", &TimelineAction::downtime,
                                          kPositive, kRequired};
constexpr Field<TimelineAction> kFactor{"factor", &TimelineAction::factor,
                                        kPositive, kRequired};
constexpr Field<TimelineAction> kRate{"rate", &TimelineAction::rate,
                                      kPositive, kRequired};

/// Each action kind's name and operands, in read and write order.
struct ActionName {
  TimelineAction::Kind value;
  const char* name;
  std::array<const Field<TimelineAction>*, 2> operands;
};
constexpr ActionName kActionKinds[] = {
    {TimelineAction::Kind::kKill, "kill", {&kNode}},
    {TimelineAction::Kind::kRecover, "recover", {&kNode}},
    {TimelineAction::Kind::kCrashRestart, "crash_restart",
     {&kNode, &kDowntime}},
    {TimelineAction::Kind::kDropLink, "drop_link", {&kSrc, &kDst}},
    {TimelineAction::Kind::kRestoreLink, "restore_link", {&kSrc, &kDst}},
    {TimelineAction::Kind::kPartition, "partition", {&kSide}},
    {TimelineAction::Kind::kHealPartition, "heal_partition", {&kSide}},
    {TimelineAction::Kind::kSlowNode, "slow_node", {&kNode, &kFactor}},
    {TimelineAction::Kind::kRestoreSpeed, "restore_speed", {&kNode}},
    {TimelineAction::Kind::kSetRate, "set_rate", {&kRate}},
    {TimelineAction::Kind::kRestoreRate, "restore_rate", {}},
};

constexpr const auto& Names(ScenarioWorkload::Kind) { return kWorkloadKinds; }
constexpr const auto& Names(ConsistencyMode) { return kConsistencyModes; }
constexpr const auto& Names(SubstrateBackend) { return kBackends; }
constexpr const auto& Names(TimelineAction::Kind) { return kActionKinds; }

/// "a, b or c", each name wrapped in `quote`.
template <typename Table>
std::string Choices(const Table& table, const std::string& quote = "") {
  std::string out;
  for (size_t i = 0; i < std::size(table); ++i) {
    if (i > 0) out += i + 1 == std::size(table) ? " or " : ", ";
    out += quote + table[i].name + quote;
  }
  return out;
}

std::string UnknownName(ScenarioWorkload::Kind, const std::string& name) {
  return "unknown workload \"" + name + "\" (want " +
         Choices(kWorkloadKinds) + ")";
}
std::string UnknownName(ConsistencyMode, const std::string& name) {
  return "unknown mode \"" + name + "\" (want " + Choices(kConsistencyModes) +
         ")";
}
std::string UnknownName(SubstrateBackend, const std::string&) {
  return "must be " + Choices(kBackends, "\"");
}
std::string UnknownName(TimelineAction::Kind, const std::string& name) {
  return "unknown action \"" + name + "\"";
}

/// The name-table row of `value`.
template <typename E>
const auto& RowOf(E value) {
  const auto& table = Names(value);
  for (const auto& row : table) {
    if (row.value == value) return row;
  }
  TCHECK(false) << "no schema name for enum value " << static_cast<int>(value);
  return table[0];
}

bool InRange(const Range& range, double v) {
  return (range.lo_open ? v > range.lo : v >= range.lo) &&
         (range.hi_open ? v < range.hi : v <= range.hi);
}

/// "must be > 0", "must be in [1, 256]", "must be <= 100000", ...
std::string RangeMessage(const Range& range) {
  // Every finite bound in the schema is an integer.
  auto bound = [](double v) {
    return std::to_string(static_cast<int64_t>(v));
  };
  if (std::isfinite(range.lo) && std::isfinite(range.hi)) {
    return std::string("must be in ") + (range.lo_open ? "(" : "[") +
           bound(range.lo) + ", " + bound(range.hi) +
           (range.hi_open ? ")" : "]");
  }
  if (std::isfinite(range.lo)) {
    return std::string("must be ") + (range.lo_open ? "> " : ">= ") +
           bound(range.lo);
  }
  return std::string("must be ") + (range.hi_open ? "< " : "<= ") +
         bound(range.hi);
}

// ---- The reader -----------------------------------------------------------

/// Collects validation errors as "path: message" lines and keeps going,
/// so one pass reports every problem in the document.
class Errors {
 public:
  explicit Errors(std::vector<std::string>* out) : out_(out) {}

  void Add(const std::string& path, const std::string& message) {
    out_->push_back(path + ": " + message);
  }

 private:
  std::vector<std::string>* out_;
};

bool ParseNodeRefString(const std::string& text, NodeRef* out) {
  if (text == "master") {
    out->kind = NodeRef::Kind::kMaster;
    out->index = 0;
    return true;
  }
  if (text == "ingester") {
    out->kind = NodeRef::Kind::kIngester;
    out->index = 0;
    return true;
  }
  const std::string prefix = "processor:";
  if (text.rfind(prefix, 0) == 0 && text.size() > prefix.size()) {
    uint64_t index = 0;
    for (size_t i = prefix.size(); i < text.size(); ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
      index = index * 10 + static_cast<uint64_t>(text[i] - '0');
      if (index > 0xFFFFFFFFULL) return false;
    }
    out->kind = NodeRef::Kind::kProcessor;
    out->index = static_cast<uint32_t>(index);
    return true;
  }
  return false;
}

/// Typed member access over one JSON object through schema rows, with
/// dotted-path error reporting and strict unknown-field rejection. A field
/// that fails validation keeps its default.
class ObjectReader {
 public:
  /// `processors` bounds the processor indexes of node references.
  ObjectReader(const JsonValue& value, std::string path, Errors* errors,
               uint32_t processors = 0)
      : value_(value),
        path_(std::move(path)),
        errors_(errors),
        processors_(processors) {
    if (!value_.is_object()) {
      errors_->Add(path_, "expected object");
      valid_ = false;
    }
  }

  bool valid() const { return valid_; }

  const JsonValue* Claim(const std::string& key) {
    if (!valid_) return nullptr;
    claimed_.push_back(key);
    return value_.Find(key);
  }

  std::string MemberPath(const std::string& key) const {
    return path_ + "." + key;
  }

  /// Reports any member not claimed by the section parser.
  void RejectUnknown() {
    if (!valid_) return;
    for (const auto& [key, unused] : value_.object) {
      (void)unused;
      bool known = false;
      for (const std::string& c : claimed_) {
        if (c == key) {
          known = true;
          break;
        }
      }
      if (!known) errors_->Add(MemberPath(key), "unknown field");
    }
  }

  /// Reads one row into `*out`; false when absent or invalid.
  template <typename S>
  bool ReadField(const Field<S>& field, S* out) {
    const JsonValue* v = Take(field.key, field.required);
    if (v == nullptr) return false;
    return std::visit(
        [&](auto member) {
          return Convert(*v, field.key, field.range, &(out->*member));
        },
        field.member);
  }

  template <typename S, size_t N>
  void ReadFields(const Field<S> (&fields)[N], S* out) {
    for (const Field<S>& field : fields) ReadField(field, out);
  }

  /// Reads member object `key` through `fields`.
  template <typename S, size_t N>
  void ReadSection(const std::string& key, const Field<S> (&fields)[N],
                   S* out, bool required = false) {
    const JsonValue* v = Take(key, required);
    if (v == nullptr) return;
    ObjectReader section(*v, MemberPath(key), errors_);
    section.ReadFields(fields, out);
    section.RejectUnknown();
  }

  // One converter per member type: each reports at `key` and leaves `*out`
  // alone on failure.
  bool Convert(const JsonValue& v, const std::string& key, const Range&,
               std::string* out) {
    if (!v.is_string()) return Fail(key, "expected string");
    *out = v.string_value;
    return true;
  }
  bool Convert(const JsonValue& v, const std::string& key, const Range&,
               bool* out) {
    if (!v.is_bool()) return Fail(key, "expected boolean");
    *out = v.bool_value;
    return true;
  }
  bool Convert(const JsonValue& v, const std::string& key,
               const Range& range, double* out) {
    if (!v.is_number()) return Fail(key, "expected number");
    if (!InRange(range, v.number)) return Fail(key, RangeMessage(range));
    *out = v.number;
    return true;
  }
  bool Convert(const JsonValue& v, const std::string& key,
               const Range& range, uint64_t* out) {
    if (!v.is_number() || v.number != std::floor(v.number) || v.number < 0) {
      return Fail(key, "expected non-negative integer");
    }
    if (!InRange(range, v.number)) return Fail(key, RangeMessage(range));
    if (v.number > kMaxExactInteger) {
      return Fail(key, RangeMessage(AtMost(kMaxExactInteger)));
    }
    *out = static_cast<uint64_t>(v.number);
    return true;
  }
  /// Every uint32_t row's range lies inside uint32_t.
  bool Convert(const JsonValue& v, const std::string& key,
               const Range& range, uint32_t* out) {
    uint64_t wide = 0;
    if (!Convert(v, key, range, &wide)) return false;
    *out = static_cast<uint32_t>(wide);
    return true;
  }
  template <typename E>
    requires std::is_enum_v<E>
  bool Convert(const JsonValue& v, const std::string& key, const Range&,
               E* out) {
    if (!v.is_string()) return Fail(key, "expected string");
    for (const auto& row : Names(E{})) {
      if (v.string_value == row.name) {
        *out = row.value;
        return true;
      }
    }
    return Fail(key, UnknownName(E{}, v.string_value));
  }
  bool Convert(const JsonValue& v, const std::string& key, const Range&,
               NodeRef* out) {
    return ResolveNodeRef(v, MemberPath(key), /*hint=*/true, out);
  }
  bool Convert(const JsonValue& v, const std::string& key, const Range&,
               std::vector<NodeRef>* out) {
    if (!v.is_array() || v.array.empty()) {
      return Fail(key, "expected non-empty array");
    }
    bool ok = true;
    for (size_t i = 0; i < v.array.size(); ++i) {
      NodeRef ref;
      if (ResolveNodeRef(v.array[i],
                         MemberPath(key) + "[" + std::to_string(i) + "]",
                         /*hint=*/false, &ref)) {
        out->push_back(ref);
      } else {
        ok = false;
      }
    }
    return ok;
  }

 private:
  /// Claim, reporting a missing `required` member.
  const JsonValue* Take(const std::string& key, bool required) {
    const JsonValue* v = Claim(key);
    if (v == nullptr && required && valid_) {
      Fail(key, "missing required field");
    }
    return v;
  }

  bool Fail(const std::string& key, const std::string& message) {
    errors_->Add(MemberPath(key), message);
    return false;
  }

  /// One node reference, bounds-checked against the cluster shape; `hint`
  /// names the accepted forms in the messages.
  bool ResolveNodeRef(const JsonValue& v, const std::string& path, bool hint,
                      NodeRef* out) {
    const std::string forms = "\"processor:N\", \"master\" or \"ingester\"";
    if (!v.is_string()) {
      errors_->Add(path, "expected node reference string" +
                             (hint ? " (" + forms + ")" : ""));
      return false;
    }
    NodeRef ref;
    if (!ParseNodeRefString(v.string_value, &ref)) {
      errors_->Add(path, "invalid node reference \"" + v.string_value + "\"" +
                             (hint ? " (want " + forms + ")" : ""));
      return false;
    }
    if (ref.kind == NodeRef::Kind::kProcessor && ref.index >= processors_) {
      errors_->Add(path, "processor index " + std::to_string(ref.index) +
                             " out of range (cluster has " +
                             std::to_string(processors_) + " processors)");
      return false;
    }
    *out = ref;
    return true;
  }

  const JsonValue& value_;
  std::string path_;
  Errors* errors_;
  uint32_t processors_;
  std::vector<std::string> claimed_;
  bool valid_ = true;
};

void ParseTimelineAction(const JsonValue& value, const std::string& path,
                         uint32_t processors, Errors* errors,
                         TimelineAction* out) {
  ObjectReader reader(value, path, errors, processors);
  if (!reader.valid()) return;
  const bool known = reader.ReadField(kActionFields[0], out);
  reader.ReadField(kActionFields[1], out);
  if (known) {
    for (const Field<TimelineAction>* operand : RowOf(out->kind).operands) {
      if (operand != nullptr) reader.ReadField(*operand, out);
    }
    const bool link = out->kind == TimelineAction::Kind::kDropLink ||
                      out->kind == TimelineAction::Kind::kRestoreLink;
    if (link && value.Find("src") != nullptr &&
        value.Find("dst") != nullptr && out->src == out->dst) {
      errors->Add(path, "src and dst must differ");
    }
  }
  reader.RejectUnknown();
}

void ParseProvenanceSection(const JsonValue& value, const std::string& path,
                            Errors* errors,
                            std::map<std::string, std::string>* out) {
  // Free-form string map: any keys, string values only.
  if (!value.is_object()) {
    errors->Add(path, "expected object");
    return;
  }
  for (const auto& [key, v] : value.object) {
    if (!v.is_string()) {
      errors->Add(path + "." + key, "expected string");
      continue;
    }
    (*out)[key] = v.string_value;
  }
}

// ---- The writer -----------------------------------------------------------

JsonValue ToJson(const NodeRef& ref) { return JsonValue::Of(ref.ToString()); }
JsonValue ToJson(const std::vector<NodeRef>& refs) {
  JsonValue out = JsonValue::MakeArray();
  for (const NodeRef& ref : refs) out.array.push_back(ToJson(ref));
  return out;
}
template <typename T>
JsonValue ToJson(const T& value) {
  if constexpr (std::is_enum_v<T>) {
    return JsonValue::Of(RowOf(value).name);
  } else {
    return JsonValue::Of(value);
  }
}

template <typename S>
void WriteField(const Field<S>& field, const S& in, JsonValue* out) {
  std::visit([&](auto member) { out->Add(field.key, ToJson(in.*member)); },
             field.member);
}

template <typename S, size_t N>
JsonValue WriteFields(const Field<S> (&fields)[N], const S& in) {
  JsonValue out = JsonValue::MakeObject();
  for (const Field<S>& field : fields) WriteField(field, in, &out);
  return out;
}

}  // namespace

std::string NodeRef::ToString() const {
  switch (kind) {
    case Kind::kMaster:
      return "master";
    case Kind::kIngester:
      return "ingester";
    case Kind::kProcessor:
      return "processor:" + std::to_string(index);
  }
  return "?";
}

bool ParseScenario(const JsonValue& root, Scenario* out,
                   std::vector<std::string>* errors) {
  errors->clear();
  *out = Scenario();
  Errors errs(errors);
  ObjectReader reader(root, "scenario", &errs);
  if (!reader.valid()) return false;

  reader.ReadFields(kScenarioFields, out);
  for (char c : out->name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-') {
      errs.Add("scenario.name",
               "must contain only [A-Za-z0-9_-] (used as a test name)");
      break;
    }
  }

  // Cluster first: node references downstream validate against its shape.
  if (const JsonValue* v = reader.Claim("cluster")) {
    ObjectReader cluster(*v, "scenario.cluster", &errs);
    cluster.ReadFields(kClusterFields, &out->cluster);
    if (const JsonValue* speeds = cluster.Claim("processor_speeds")) {
      const std::string path = cluster.MemberPath("processor_speeds");
      if (!speeds->is_array()) {
        errs.Add(path, "expected array");
      } else if (speeds->array.size() > out->cluster.processors) {
        errs.Add(path, "more entries than processors");
      } else {
        for (size_t i = 0; i < speeds->array.size(); ++i) {
          const JsonValue& speed = speeds->array[i];
          const std::string item = path + "[" + std::to_string(i) + "]";
          if (!speed.is_number()) {
            errs.Add(item, "expected number");
          } else if (speed.number <= 0.0) {
            errs.Add(item, "must be > 0");
          } else {
            out->cluster.processor_speeds.push_back(speed.number);
          }
        }
      }
    }
    cluster.RejectUnknown();
  }
  if (const JsonValue* v = reader.Claim("cost")) {
    ObjectReader cost(*v, "scenario.cost", &errs);
    for (const CostField& field : kCostFields) {
      const JsonValue* member = cost.Claim(field.name);
      double value = 0.0;
      if (member != nullptr &&
          cost.Convert(*member, field.name, field.range, &value)) {
        out->cost[field.name] = value;
      }
    }
    cost.RejectUnknown();
  }
  reader.ReadSection("workload", kWorkloadFields, &out->workload, kRequired);
  reader.ReadSection("consistency", kConsistencyFields, &out->consistency);
  reader.ReadSection("drive", kDriveFields, &out->drive);
  if (const JsonValue* v = reader.Claim("timeline")) {
    if (!v->is_array()) {
      errs.Add("scenario.timeline", "expected array");
    } else {
      for (size_t i = 0; i < v->array.size(); ++i) {
        TimelineAction action;
        ParseTimelineAction(v->array[i],
                            "scenario.timeline[" + std::to_string(i) + "]",
                            out->cluster.processors, &errs, &action);
        out->timeline.push_back(std::move(action));
      }
    }
  }
  reader.ReadSection("chaos", kChaosFields, &out->chaos);
  if (const JsonValue* v = reader.Claim("provenance")) {
    ParseProvenanceSection(*v, "scenario.provenance", &errs,
                           &out->provenance);
  }

  // Cross-section checks.
  if (out->drive.warmup_tuples > out->workload.tuples) {
    errs.Add("scenario.drive.warmup_tuples",
             "exceeds scenario.workload.tuples (" +
                 std::to_string(out->workload.tuples) + ")");
  }
  if (out->cluster.hosts > out->cluster.processors) {
    errs.Add("scenario.cluster.hosts", "must be <= processors");
  }

  reader.RejectUnknown();
  return errors->empty();
}

bool ParseScenarioText(const std::string& text, Scenario* out,
                       std::vector<std::string>* errors) {
  errors->clear();
  JsonValue root;
  std::string parse_error;
  if (!JsonParse(text, &root, &parse_error)) {
    errors->push_back("scenario: JSON parse error at " + parse_error);
    return false;
  }
  return ParseScenario(root, out, errors);
}

bool LoadScenarioFile(const std::string& path, Scenario* out,
                      std::vector<std::string>* errors) {
  errors->clear();
  std::ifstream in(path);
  if (!in.is_open()) {
    errors->push_back("scenario: cannot open " + path);
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseScenarioText(text.str(), out, errors);
}

JsonValue ScenarioToJson(const Scenario& s) {
  JsonValue root = JsonValue::MakeObject();
  for (const Field<Scenario>& field : kScenarioFields) {
    // Omitted at their defaults so the corpus round-trips byte-identically;
    // shards mean nothing on sim.
    const std::string key = field.key;
    if ((key == "description" && s.description.empty()) ||
        ((key == "backend" || key == "shards") &&
         s.backend == SubstrateBackend::kSim)) {
      continue;
    }
    WriteField(field, s, &root);
  }

  JsonValue cluster = WriteFields(kClusterFields, s.cluster);
  if (!s.cluster.processor_speeds.empty()) {
    JsonValue speeds = JsonValue::MakeArray();
    for (double v : s.cluster.processor_speeds) {
      speeds.array.push_back(JsonValue::Of(v));
    }
    cluster.Add("processor_speeds", std::move(speeds));
  }
  root.Add("cluster", std::move(cluster));

  if (!s.cost.empty()) {
    JsonValue cost = JsonValue::MakeObject();
    // Schema order, not map order, for stable diffs.
    for (const CostField& field : kCostFields) {
      auto it = s.cost.find(field.name);
      if (it != s.cost.end()) cost.Add(field.name, JsonValue::Of(it->second));
    }
    root.Add("cost", std::move(cost));
  }

  root.Add("workload", WriteFields(kWorkloadFields, s.workload));
  root.Add("consistency", WriteFields(kConsistencyFields, s.consistency));
  root.Add("drive", WriteFields(kDriveFields, s.drive));

  if (!s.timeline.empty()) {
    JsonValue timeline = JsonValue::MakeArray();
    for (const TimelineAction& a : s.timeline) {
      JsonValue action = WriteFields(kActionFields, a);
      for (const Field<TimelineAction>* operand : RowOf(a.kind).operands) {
        if (operand != nullptr) WriteField(*operand, a, &action);
      }
      timeline.array.push_back(std::move(action));
    }
    root.Add("timeline", std::move(timeline));
  }

  if (s.chaos.commit_regression_after >= 0.0) {
    root.Add("chaos", WriteFields(kChaosFields, s.chaos));
  }

  if (!s.provenance.empty()) {
    JsonValue provenance = JsonValue::MakeObject();
    for (const auto& [key, value] : s.provenance) {
      provenance.Add(key, JsonValue::Of(value));
    }
    root.Add("provenance", std::move(provenance));
  }
  return root;
}

JobConfig ScenarioJobConfig(const Scenario& s) {
  JobConfig config;
  config.delay_bound = s.consistency.delay_bound;
  config.consistency = s.consistency.mode;
  config.num_processors = s.cluster.processors;
  config.num_hosts = s.cluster.hosts;
  config.processor_speeds = s.cluster.processor_speeds;
  config.ingest_rate = s.workload.rate;
  config.ingest_batch = s.workload.batch;
  config.seed = s.seed;
  config.backend = s.backend;
  config.sim_shards = static_cast<uint32_t>(s.shards);
  for (const CostField& field : kCostFields) {
    auto it = s.cost.find(field.name);
    if (it != s.cost.end()) config.cost.*(field.member) = it->second;
  }
  return config;
}

}  // namespace scenario
}  // namespace tornado
