#include "qpwm/relational/table.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "qpwm/util/check.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"

namespace qpwm {

Table::Table(std::string name, std::vector<ColumnSpec> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {
  for (const ColumnSpec& c : columns_) {
    if (c.role == ColumnRole::kWeight) {
      QPWM_CHECK(!c.weight_of.empty());
      QPWM_CHECK(ColumnIndex(c.weight_of).ok());
    }
  }
}

Result<size_t> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("table " + name_ + " has no column '" + name + "'");
}

Status Table::AddRow(std::vector<Cell> row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(StrCat("row width ", row.size(), " != schema width ",
                                          columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const bool is_weight = columns_[i].role == ColumnRole::kWeight;
    if (is_weight != std::holds_alternative<Weight>(row[i])) {
      return Status::InvalidArgument("cell kind does not match column role in column '" +
                                     columns_[i].name + "'");
    }
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

const std::string& Table::KeyAt(size_t row, size_t col) const {
  QPWM_CHECK(columns_[col].role == ColumnRole::kKey);
  return std::get<std::string>(rows_[row][col]);
}

Weight Table::WeightAt(size_t row, size_t col) const {
  QPWM_CHECK(columns_[col].role == ColumnRole::kWeight);
  return std::get<Weight>(rows_[row][col]);
}

void Table::SetWeightAt(size_t row, size_t col, Weight w) {
  QPWM_CHECK(columns_[col].role == ColumnRole::kWeight);
  rows_[row][col] = w;
}

std::vector<size_t> Table::WeightColumns() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].role == ColumnRole::kWeight) out.push_back(i);
  }
  return out;
}

Table& Database::AddTable(Table t) {
  tables_.push_back(std::move(t));
  return tables_.back();
}

Result<const Table*> Database::Find(const std::string& name) const {
  for (const Table& t : tables_) {
    if (t.name() == name) return &t;
  }
  return Status::NotFound("no table named '" + name + "'");
}

Result<Table*> Database::FindMutable(const std::string& name) {
  for (Table& t : tables_) {
    if (t.name() == name) return &t;
  }
  return Status::NotFound("no table named '" + name + "'");
}

Result<RelationalInstance> ToWeightedStructure(const Database& db) {
  // Per table: its key columns and, per weight column, the position among
  // the key columns of the key that carries the weight.
  struct TablePlan {
    std::vector<size_t> key_cols;
    std::vector<std::pair<size_t, size_t>> weights;  // (weight column, key position)
    size_t first_cell = 0;  // offset of the table's rows in `cells`
  };
  std::vector<TablePlan> plans(db.tables().size());
  size_t total_cells = 0;
  for (size_t ti = 0; ti < db.tables().size(); ++ti) {
    const Table& t = db.tables()[ti];
    TablePlan& plan = plans[ti];
    for (size_t c = 0; c < t.columns().size(); ++c) {
      if (t.columns()[c].role == ColumnRole::kKey) plan.key_cols.push_back(c);
    }
    for (size_t c : t.WeightColumns()) {
      const size_t key_col = t.ColumnIndex(t.columns()[c].weight_of).ValueOrDie();
      auto pos = std::find(plan.key_cols.begin(), plan.key_cols.end(), key_col);
      // Weights attach to key columns (only enforced once a row needs it).
      QPWM_CHECK(pos != plan.key_cols.end() || t.num_rows() == 0);
      plan.weights.emplace_back(c, static_cast<size_t>(pos - plan.key_cols.begin()));
    }
    plan.first_cell = total_cells;
    total_cells += t.num_rows() * plan.key_cols.size();
  }

  // Intern every key cell once, ids in first-appearance order (table, row,
  // column); `cells` keeps each row's key ids, row-major per table. The views
  // point into `db`, which outlives this function.
  std::unordered_map<std::string_view, ElemId> intern;
  intern.reserve(total_cells);
  std::vector<std::string_view> names;
  std::vector<ElemId> cells(total_cells);
  for (size_t ti = 0; ti < db.tables().size(); ++ti) {
    const Table& t = db.tables()[ti];
    ElemId* out = cells.data() + plans[ti].first_cell;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      const std::vector<Cell>& row = t.row(r);
      for (size_t c : plans[ti].key_cols) {
        const std::string_view v = std::get<std::string>(row[c]);
        auto [it, inserted] = intern.try_emplace(v, static_cast<ElemId>(names.size()));
        if (inserted) names.push_back(v);
        *out++ = it->second;
      }
    }
  }

  Signature sig;
  for (size_t ti = 0; ti < db.tables().size(); ++ti) {
    sig.AddRelation(db.tables()[ti].name(),
                    static_cast<uint32_t>(plans[ti].key_cols.size()));
  }
  const size_t n = names.size();
  RelationalInstance out;
  out.structure = Structure(std::move(sig), n);
  out.weights = WeightMap(1, n);
  std::vector<bool>& has_weight = out.has_weight;
  has_weight.assign(n, false);

  for (size_t ti = 0; ti < db.tables().size(); ++ti) {
    const Table& t = db.tables()[ti];
    const TablePlan& plan = plans[ti];
    const size_t arity = plan.key_cols.size();
    const ElemId* rows = cells.data() + plan.first_cell;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (const auto& [c, key_pos] : plan.weights) {
        const ElemId e = rows[r * arity + key_pos];
        const Weight w = t.WeightAt(r, c);
        if (has_weight[e] && out.weights.GetElem(e) != w) {
          return Status::InvalidArgument("element '" + std::string(names[e]) +
                                         "' receives two different weights");
        }
        has_weight[e] = true;
        out.weights.SetElem(e, w);
      }
    }

    // The relation is the sorted set of distinct key tuples.
    if (arity == 0) {
      if (t.num_rows() > 0) out.structure.AddTuple(ti, Tuple{});
      continue;
    }
    std::vector<ElemId> flat(rows, rows + t.num_rows() * arity);
    SortUniqueRecords(flat, static_cast<uint32_t>(arity));
    out.structure.mutable_relation(ti).SwapFlatUnchecked(flat);
  }

  std::vector<std::string> owned;
  owned.reserve(n);
  for (std::string_view v : names) owned.emplace_back(v);
  out.structure.SetElementNames(std::move(owned));
  return out;
}

Result<Database> ApplyWeightsToDatabase(const Database& db,
                                        const RelationalInstance& instance,
                                        const WeightMap& weights) {
  Database out = db;
  for (Table& t : out.mutable_tables()) {
    for (size_t c : t.WeightColumns()) {
      size_t key_col = t.ColumnIndex(t.columns()[c].weight_of).ValueOrDie();
      for (size_t r = 0; r < t.num_rows(); ++r) {
        auto elem = instance.structure.FindElement(t.KeyAt(r, key_col));
        if (!elem.ok()) return elem.status();
        t.SetWeightAt(r, c, weights.GetElem(elem.value()));
      }
    }
  }
  return out;
}

Table SubsetRowsAttack(const Table& table, double keep_frac, Rng& rng) {
  Table out(table.name(), table.columns());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (rng.Bernoulli(keep_frac)) {
      Status added = out.AddRow(table.row(r));
      QPWM_CHECK(added.ok());
    }
  }
  return out;
}

AlignedSuspect AlignSuspectInstance(const RelationalInstance& original,
                                    const RelationalInstance& suspect) {
  AlignedSuspect out;
  out.weights = original.weights;
  const size_t n = original.structure.universe_size();
  out.present.assign(n, false);
  for (ElemId e = 0; e < n; ++e) {
    auto found = suspect.structure.FindElement(original.structure.ElementName(e));
    if (!found.ok()) {
      ++out.missing;
      continue;
    }
    // An element can survive in a key column while the row carrying its
    // weight is gone: its suspect weight is unknown, so it must be served as
    // erased, not as a fabricated 0.
    const bool original_weighted =
        e < original.has_weight.size() && original.has_weight[e];
    const bool suspect_weighted = found.value() < suspect.has_weight.size() &&
                                  suspect.has_weight[found.value()];
    if (original_weighted && !suspect_weighted) {
      ++out.missing;
      continue;
    }
    if (suspect_weighted) {
      out.weights.SetElem(e, suspect.weights.GetElem(found.value()));
    }
    out.present[e] = true;
    ++out.matched;
  }
  out.extra = suspect.structure.universe_size() - out.matched;
  return out;
}

Database TravelAgencyDatabase() {
  Database db;
  Table route("Route", {{"travel", ColumnRole::kKey, ""},
                        {"transport", ColumnRole::kKey, ""}});
  QPWM_CHECK(route.AddRow({std::string("India discovery"), std::string("F21")}).ok());
  QPWM_CHECK(route.AddRow({std::string("India discovery"), std::string("G12")}).ok());
  QPWM_CHECK(route.AddRow({std::string("Nepal Trek"), std::string("F21")}).ok());
  QPWM_CHECK(route.AddRow({std::string("Nepal Trek"), std::string("R5")}).ok());
  QPWM_CHECK(route.AddRow({std::string("Nepal Trek"), std::string("F2")}).ok());
  QPWM_CHECK(route.AddRow({std::string("TourNepal"), std::string("F2")}).ok());
  QPWM_CHECK(route.AddRow({std::string("TourNepal"), std::string("T33")}).ok());
  db.AddTable(std::move(route));

  Table timetable("Timetable", {{"transport", ColumnRole::kKey, ""},
                                {"departure", ColumnRole::kKey, ""},
                                {"arrival", ColumnRole::kKey, ""},
                                {"type", ColumnRole::kKey, ""},
                                {"duration", ColumnRole::kWeight, "transport"}});
  auto minutes = [](Weight h, Weight m) { return h * 60 + m; };
  QPWM_CHECK(timetable.AddRow({std::string("F21"), std::string("Paris"),
                               std::string("Delhi"), std::string("plane"),
                               minutes(10, 35)}).ok());
  QPWM_CHECK(timetable.AddRow({std::string("G12"), std::string("Delhi"),
                               std::string("Nawalgarh"), std::string("bus"),
                               minutes(6, 20)}).ok());
  QPWM_CHECK(timetable.AddRow({std::string("R5"), std::string("Delhi"),
                               std::string("Kathmandu"), std::string("plane"),
                               minutes(6, 15)}).ok());
  QPWM_CHECK(timetable.AddRow({std::string("F2"), std::string("Kathmandu"),
                               std::string("Simikot"), std::string("plane"),
                               minutes(3, 30)}).ok());
  QPWM_CHECK(timetable.AddRow({std::string("T33"), std::string("Kathmandu"),
                               std::string("Daman"), std::string("jeep"),
                               minutes(2, 50)}).ok());
  QPWM_CHECK(timetable.AddRow({std::string("G13"), std::string("Kathmandu"),
                               std::string("Paris"), std::string("plane"),
                               minutes(10, 0)}).ok());
  db.AddTable(std::move(timetable));
  return db;
}

Database RandomTravelDatabase(size_t travels, size_t transports, size_t max_legs,
                              Rng& rng) {
  static const char* kCities[] = {"Paris",   "Delhi",  "Kathmandu", "Daman",
                                  "Simikot", "Lhasa",  "Pokhara",   "Agra"};
  static const char* kTypes[] = {"plane", "bus", "jeep", "train"};
  Database db;

  Table route("Route", {{"travel", ColumnRole::kKey, ""},
                        {"transport", ColumnRole::kKey, ""}});
  for (size_t i = 0; i < travels; ++i) {
    size_t legs = 1 + rng.Below(max_legs);
    for (size_t leg = 0; leg < legs; ++leg) {
      QPWM_CHECK(route.AddRow({StrCat("travel", i),
                               StrCat("t", rng.Below(transports))}).ok());
    }
  }
  db.AddTable(std::move(route));

  Table timetable("Timetable", {{"transport", ColumnRole::kKey, ""},
                                {"departure", ColumnRole::kKey, ""},
                                {"arrival", ColumnRole::kKey, ""},
                                {"type", ColumnRole::kKey, ""},
                                {"duration", ColumnRole::kWeight, "transport"}});
  for (size_t j = 0; j < transports; ++j) {
    size_t from = rng.Below(8);
    size_t to = (from + 1 + rng.Below(7)) % 8;
    QPWM_CHECK(timetable.AddRow({StrCat("t", j), std::string(kCities[from]),
                                 std::string(kCities[to]),
                                 std::string(kTypes[rng.Below(4)]),
                                 rng.Uniform(30, 900)}).ok());
  }
  db.AddTable(std::move(timetable));
  return db;
}

}  // namespace qpwm
