// CSV import/export for tables: a practical ingestion path for the
// relational engine. Dialect: comma separator, double-quote quoting with
// doubled-quote escapes, first line = header. Column roles come from the
// caller (CSV has no types); weight columns must parse as integers.
#ifndef QPWM_RELATIONAL_CSV_H_
#define QPWM_RELATIONAL_CSV_H_

#include <string>
#include <string_view>

#include "qpwm/relational/table.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// Resource limits on a parse, on the model of XmlParseLimits. Inputs
/// exceeding a limit are rejected with a kParseError before the oversized
/// part is materialized — the guard on the suspect-table path. 0 disables a
/// check.
struct CsvParseLimits {
  /// Maximum input size in bytes.
  size_t max_bytes = 256u << 20;
  /// Maximum number of data rows (the header not counted).
  size_t max_rows = 16u << 20;
  /// Maximum number of fields in one record.
  size_t max_columns = 1024;
  /// Maximum length of one field in bytes, after unquoting.
  size_t max_field_bytes = 1u << 20;
};

/// Parses CSV text into a table named `name`. `columns` must match the
/// header names in order (roles attached by the caller).
[[nodiscard]] Result<Table> TableFromCsv(std::string name, std::vector<ColumnSpec> columns,
                                         std::string_view csv,
                                         const CsvParseLimits& limits = {});

/// Renders a table as CSV (header + rows).
std::string TableToCsv(const Table& table);

}  // namespace qpwm

#endif  // QPWM_RELATIONAL_CSV_H_
