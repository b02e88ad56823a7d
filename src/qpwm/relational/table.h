// A small typed relational engine: enough to host the paper's travel-agency
// database (Example 1) and the baseline comparison workloads. Columns are
// either *key* columns (parameter values — immutable, they identify data and
// may appear in queries) or *weight* columns (numeric, distortable). Each
// weight column declares which key column its values attach to, mirroring
// the paper's "elements map to numerical values" convention.
#ifndef QPWM_RELATIONAL_TABLE_H_
#define QPWM_RELATIONAL_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "qpwm/structure/weighted.h"
#include "qpwm/util/status.h"

namespace qpwm {

enum class ColumnRole { kKey, kWeight };

struct ColumnSpec {
  std::string name;
  ColumnRole role = ColumnRole::kKey;
  /// For weight columns: the key column (same table) whose value carries the
  /// weight.
  std::string weight_of;
};

/// A cell: strings for key columns, integers for weight columns. Used to
/// build a table row by row; a table stores its cells by column.
using Cell = std::variant<std::string, Weight>;

class Table {
 public:
  /// One column's cells: `keys` for a key column, `weights` for a weight
  /// column (the other stays empty).
  struct Column {
    std::vector<std::string> keys;
    std::vector<Weight> weights;
  };

  Table(std::string name, std::vector<ColumnSpec> columns);
  /// A table over filled columns: `cells[c]` holds column c's cells, and
  /// every column has the same number of them.
  Table(std::string name, std::vector<ColumnSpec> columns, std::vector<Column> cells);

  const std::string& name() const { return name_; }
  const std::vector<ColumnSpec>& columns() const { return columns_; }
  size_t num_rows() const { return num_rows_; }
  /// Row `i` as cells (a copy, e.g. to add it to another table).
  std::vector<Cell> row(size_t i) const;

  /// Index of the column named `name`.
  [[nodiscard]] Result<size_t> ColumnIndex(const std::string& name) const;

  /// Appends a row; cell kinds must match column roles.
  [[nodiscard]] Status AddRow(std::vector<Cell> row);

  /// Key cell as string / weight cell as integer (role-checked).
  const std::string& KeyAt(size_t row, size_t col) const;
  Weight WeightAt(size_t row, size_t col) const;
  void SetWeightAt(size_t row, size_t col, Weight w);

  /// Indices of weight columns.
  std::vector<size_t> WeightColumns() const;

 private:
  std::string name_;
  std::vector<ColumnSpec> columns_;
  size_t num_rows_ = 0;
  // Column c's cells: keys_[c] if it is a key column (null otherwise),
  // weights_[c] if it is a weight column (empty otherwise). Key values never
  // change, so copies of a table share their key columns; AddRow copies a
  // shared column before appending to it.
  std::vector<std::shared_ptr<std::vector<std::string>>> keys_;
  std::vector<std::vector<Weight>> weights_;
};

/// A named collection of tables.
class Database {
 public:
  Table& AddTable(Table t);
  const std::vector<Table>& tables() const { return tables_; }
  std::vector<Table>& mutable_tables() { return tables_; }
  [[nodiscard]] Result<const Table*> Find(const std::string& name) const;
  [[nodiscard]] Result<Table*> FindMutable(const std::string& name);

 private:
  std::vector<Table> tables_;
};

/// The translation of Section 1: one relation per table over its key
/// columns; universe = all distinct key values; weights attach to the
/// declared key elements (s = 1).
struct RelationalInstance {
  Structure structure;
  WeightMap weights;
  /// Element actually appears in some weight cell (key-only elements such as
  /// city names carry no weight; their WeightMap entry is a filler 0).
  std::vector<bool> has_weight;
  /// Per table of the source database, each row's key-cell element ids,
  /// row-major over the table's key columns in column order: row r of a table
  /// with k key columns is the tuple at [r * k, r * k + k).
  std::vector<std::vector<ElemId>> row_ids;

  RelationalInstance() : weights(1, 0) {}
};

/// Converts; fails if one element receives two different weights.
[[nodiscard]] Result<RelationalInstance> ToWeightedStructure(const Database& db);

/// The element id of key column `col` of `db.tables()[table]`, one per row,
/// read from `instance.row_ids` (`instance` must have been built from `db`).
std::vector<ElemId> KeyColumnIds(const Database& db, const RelationalInstance& instance,
                                 size_t table, size_t col);

/// Writes (watermarked) element weights back into the weight cells of a copy
/// of `db` (inverse of ToWeightedStructure on the weight part). `instance`
/// must have been built from `db`: each cell's element comes from its
/// row_ids. The copy shares db's key columns.
[[nodiscard]] Result<Database> ApplyWeightsToDatabase(const Database& db,
                                        const RelationalInstance& instance,
                                        const WeightMap& weights);

/// Subset-selection attack: keeps each row independently with probability
/// `keep_frac` (an attacker shipping a sampled fragment of the marked table).
class Rng;
Table SubsetRowsAttack(const Table& table, double keep_frac, Rng& rng);

/// Alignment of a structurally tampered suspect instance against the
/// original, keyed by element name (key values identify data): which original
/// elements survive in the suspect, and with what weights. Feeds the
/// erasure-aware detection path — absent elements are served as deleted.
struct AlignedSuspect {
  /// Suspect weights over the *original* universe ids; absent elements keep
  /// the original value (they are erased from answers anyway).
  WeightMap weights;
  std::vector<bool> present;  // original element still in the suspect
  size_t matched = 0;
  size_t missing = 0;  // original elements gone from the suspect
  size_t extra = 0;    // suspect elements with no original counterpart

  AlignedSuspect() : weights(1, 0) {}
};

AlignedSuspect AlignSuspectInstance(const RelationalInstance& original,
                                    const RelationalInstance& suspect);

/// The paper's Example 1 travel database: Route(travel, transport) and
/// Timetable(transport, departure, arrival, type, duration), durations in
/// minutes (10:35 -> 635).
Database TravelAgencyDatabase();

/// A scaled synthetic travel database: `travels` packages over `transports`
/// legs (bounded fan-out keeps the Gaifman degree small).
class Rng;
Database RandomTravelDatabase(size_t travels, size_t transports, size_t max_legs,
                              Rng& rng);

}  // namespace qpwm

#endif  // QPWM_RELATIONAL_TABLE_H_
