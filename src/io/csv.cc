#include "io/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/trace.h"

namespace geoalign::io {

namespace {

// Parses one CSV record starting at `pos`; advances `pos` past the
// record's terminating newline (or to text.size()).
Result<std::vector<std::string>> ParseRecord(const std::string& text,
                                             size_t* pos) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  size_t i = *pos;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    if (c == '"') {
      if (!field.empty()) {
        return Status::InvalidArgument("CSV: quote inside unquoted field");
      }
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c == '\n' || c == '\r') {
      // Consume \r\n or \n.
      if (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n') ++i;
      ++i;
      break;
    } else {
      field += c;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("CSV: unterminated quoted field");
  }
  fields.push_back(std::move(field));
  *pos = i;
  return fields;
}

bool NeedsQuoting(const std::string& field) {
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendField(std::string* out, const std::string& field) {
  if (!NeedsQuoting(field)) {
    *out += field;
    return;
  }
  *out += '"';
  for (char c : field) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

}  // namespace

Result<Table> ParseCsv(const std::string& text) {
  GEOALIGN_TRACE_SPAN("io.parse_csv");
  size_t pos = 0;
  if (text.empty()) return Status::InvalidArgument("CSV: empty input");
  GEOALIGN_ASSIGN_OR_RETURN(std::vector<std::string> header,
                            ParseRecord(text, &pos));
  GEOALIGN_ASSIGN_OR_RETURN(Table table, Table::Create(std::move(header)));
  while (pos < text.size()) {
    // Skip blank trailing lines.
    if (text[pos] == '\n' || text[pos] == '\r') {
      ++pos;
      continue;
    }
    GEOALIGN_ASSIGN_OR_RETURN(std::vector<std::string> row,
                              ParseRecord(text, &pos));
    GEOALIGN_RETURN_IF_ERROR(table.AppendRow(std::move(row)));
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCsv(buf.str());
}

std::string ToCsv(const Table& table) {
  std::string out;
  const std::vector<std::string>& cols = table.column_names();
  for (size_t c = 0; c < cols.size(); ++c) {
    if (c > 0) out += ',';
    AppendField(&out, cols[c]);
  }
  out += '\n';
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      if (c > 0) out += ',';
      AppendField(&out, table.Cell(r, c));
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for write");
  out << ToCsv(table);
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace geoalign::io
