package table

import (
	"io"
	"strconv"
)

// WriteCSV emits the table as CSV (header + rows) for interop and debugging.
// Dates are written as integer day offsets.
func (t *Table) WriteCSV(w io.Writer) error {
	for i, c := range t.Schema.Cols {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, c.Name); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 256)
	for _, p := range t.Parts {
		for r := 0; r < p.Rows(); r++ {
			buf = buf[:0]
			for ci, col := range t.Schema.Cols {
				if ci > 0 {
					buf = append(buf, ',')
				}
				if col.IsNumeric() {
					buf = strconv.AppendFloat(buf, p.NumCol(ci)[r], 'g', -1, 64)
				} else {
					buf = append(buf, t.Dict.Value(p.CatCol(ci)[r])...)
				}
			}
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}
