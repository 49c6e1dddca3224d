/**
 * @file
 * ASCII table renderer used by every bench binary to print paper-style
 * tables and figure series. Columns auto-size; the first column is
 * left-aligned, the rest right-aligned (numeric convention).
 */
#ifndef ENCORE_SUPPORT_TABLE_H
#define ENCORE_SUPPORT_TABLE_H

#include <iosfwd>
#include <string>
#include <vector>

namespace encore {

class Table
{
  public:
    /// Creates a table with the given column headers.
    explicit Table(std::vector<std::string> headers);

    /// Appends a row; must have exactly as many cells as headers.
    void addRow(std::vector<std::string> cells);

    /// Appends a horizontal separator row.
    void addSeparator();

    /// Renders the table to the stream.
    void print(std::ostream &os) const;

    /// Renders the table to a string.
    std::string toString() const;

  private:
    struct Row
    {
        std::vector<std::string> cells;
        bool separator = false;
    };

    std::vector<std::string> headers_;
    std::vector<Row> rows_;
};

} // namespace encore

#endif // ENCORE_SUPPORT_TABLE_H
