#include "qpwm/relational/table.h"

#include <algorithm>

#include "qpwm/util/check.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"

namespace qpwm {

Table::Table(std::string name, std::vector<ColumnSpec> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {
  keys_.resize(columns_.size());
  weights_.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c].role == ColumnRole::kKey) {
      keys_[c] = std::make_shared<std::vector<std::string>>();
    } else {
      QPWM_CHECK(!columns_[c].weight_of.empty());
      QPWM_CHECK(ColumnIndex(columns_[c].weight_of).ok());
    }
  }
}

Table::Table(std::string name, std::vector<ColumnSpec> columns, std::vector<Column> cells)
    : Table(std::move(name), std::move(columns)) {
  QPWM_CHECK_EQ(cells.size(), columns_.size());
  num_rows_ = cells.empty() ? 0 : std::max(cells[0].keys.size(), cells[0].weights.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (keys_[c]) {
      QPWM_CHECK(cells[c].weights.empty());
      QPWM_CHECK_EQ(cells[c].keys.size(), num_rows_);
      *keys_[c] = std::move(cells[c].keys);
    } else {
      QPWM_CHECK(cells[c].keys.empty());
      QPWM_CHECK_EQ(cells[c].weights.size(), num_rows_);
      weights_[c] = std::move(cells[c].weights);
    }
  }
}

std::vector<Cell> Table::row(size_t i) const {
  QPWM_CHECK_LT(i, num_rows_);
  std::vector<Cell> out;
  out.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (keys_[c]) {
      out.emplace_back((*keys_[c])[i]);
    } else {
      out.emplace_back(weights_[c][i]);
    }
  }
  return out;
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
  for (size_t c = 0; c < row.size(); ++c) {
    if (!keys_[c]) {
      weights_[c].push_back(std::get<Weight>(row[c]));
      continue;
    }
    if (keys_[c].use_count() > 1) {
      keys_[c] = std::make_shared<std::vector<std::string>>(*keys_[c]);
    }
    keys_[c]->push_back(std::move(std::get<std::string>(row[c])));
  }
  ++num_rows_;
  return Status::OK();
}

const std::string& Table::KeyAt(size_t row, size_t col) const {
  QPWM_CHECK(columns_[col].role == ColumnRole::kKey);
  return (*keys_[col])[row];
}

Weight Table::WeightAt(size_t row, size_t col) const {
  QPWM_CHECK(columns_[col].role == ColumnRole::kWeight);
  return weights_[col][row];
}

void Table::SetWeightAt(size_t row, size_t col, Weight w) {
  QPWM_CHECK(columns_[col].role == ColumnRole::kWeight);
  weights_[col][row] = w;
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

namespace {

// A table's key columns, and per weight column the position among them of
// the key that carries its weight.
struct KeyLayout {
  std::vector<size_t> key_cols;
  std::vector<std::pair<size_t, size_t>> weights;  // (weight column, key position)
};

KeyLayout LayoutOf(const Table& t) {
  KeyLayout layout;
  for (size_t c = 0; c < t.columns().size(); ++c) {
    if (t.columns()[c].role == ColumnRole::kKey) layout.key_cols.push_back(c);
  }
  for (size_t c : t.WeightColumns()) {
    const size_t key_col = t.ColumnIndex(t.columns()[c].weight_of).ValueOrDie();
    auto pos = std::find(layout.key_cols.begin(), layout.key_cols.end(), key_col);
    // Weights attach to key columns (only enforced once a row needs it).
    QPWM_CHECK(pos != layout.key_cols.end() || t.num_rows() == 0);
    layout.weights.emplace_back(c, static_cast<size_t>(pos - layout.key_cols.begin()));
  }
  return layout;
}

}  // namespace

Result<RelationalInstance> ToWeightedStructure(const Database& db) {
  const size_t num_tables = db.tables().size();
  std::vector<KeyLayout> layouts;
  layouts.reserve(num_tables);
  Signature sig;
  size_t total_cells = 0;
  for (const Table& t : db.tables()) {
    layouts.push_back(LayoutOf(t));
    sig.AddRelation(t.name(), static_cast<uint32_t>(layouts.back().key_cols.size()));
    total_cells += t.num_rows() * layouts.back().key_cols.size();
  }

  // Intern every key cell once, straight into the structure's name index:
  // ids in first-appearance order (table, row, column).
  RelationalInstance out;
  out.structure = Structure(std::move(sig), 0);
  out.structure.ReserveElementNames(total_cells);
  out.row_ids.resize(num_tables);
  for (size_t ti = 0; ti < num_tables; ++ti) {
    const Table& t = db.tables()[ti];
    std::vector<ElemId>& ids = out.row_ids[ti];
    ids.reserve(t.num_rows() * layouts[ti].key_cols.size());
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (size_t c : layouts[ti].key_cols) {
        ids.push_back(out.structure.InternElement(t.KeyAt(r, c)));
      }
    }
  }

  const size_t n = out.structure.universe_size();
  out.weights = WeightMap(1, n);
  std::vector<bool>& has_weight = out.has_weight;
  has_weight.assign(n, false);
  for (size_t ti = 0; ti < num_tables; ++ti) {
    const Table& t = db.tables()[ti];
    const size_t arity = layouts[ti].key_cols.size();
    const std::vector<ElemId>& ids = out.row_ids[ti];
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (const auto& [c, key_pos] : layouts[ti].weights) {
        const ElemId e = ids[r * arity + key_pos];
        const Weight w = t.WeightAt(r, c);
        if (has_weight[e] && out.weights.GetElem(e) != w) {
          return Status::InvalidArgument("element '" + out.structure.ElementName(e) +
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
    std::vector<ElemId> flat = ids;
    SortUniqueRecords(flat, static_cast<uint32_t>(arity));
    out.structure.mutable_relation(ti).SwapFlatUnchecked(flat);
  }
  return out;
}

std::vector<ElemId> KeyColumnIds(const Database& db, const RelationalInstance& instance,
                                 size_t table, size_t col) {
  const Table& t = db.tables()[table];
  QPWM_CHECK(t.columns()[col].role == ColumnRole::kKey);
  const KeyLayout layout = LayoutOf(t);
  const size_t arity = layout.key_cols.size();
  const size_t key_pos = static_cast<size_t>(
      std::find(layout.key_cols.begin(), layout.key_cols.end(), col) - layout.key_cols.begin());
  const std::vector<ElemId>& ids = instance.row_ids[table];
  QPWM_CHECK_EQ(ids.size(), t.num_rows() * arity);
  std::vector<ElemId> out(t.num_rows());
  for (size_t r = 0; r < out.size(); ++r) out[r] = ids[r * arity + key_pos];
  return out;
}

Result<Database> ApplyWeightsToDatabase(const Database& db,
                                        const RelationalInstance& instance,
                                        const WeightMap& weights) {
  if (instance.row_ids.size() != db.tables().size()) {
    return Status::InvalidArgument("instance was not built from this database");
  }
  Database out = db;
  for (size_t ti = 0; ti < out.tables().size(); ++ti) {
    Table& t = out.mutable_tables()[ti];
    const KeyLayout layout = LayoutOf(t);
    const size_t arity = layout.key_cols.size();
    const std::vector<ElemId>& ids = instance.row_ids[ti];
    if (ids.size() != t.num_rows() * arity) {
      return Status::InvalidArgument("instance was not built from table " + t.name());
    }
    for (const auto& [c, key_pos] : layout.weights) {
      for (size_t r = 0; r < t.num_rows(); ++r) {
        t.SetWeightAt(r, c, weights.GetElem(ids[r * arity + key_pos]));
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
