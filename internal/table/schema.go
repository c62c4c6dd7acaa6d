// Package table implements the partitioned columnar storage substrate that
// PS3 runs on. It models a big-data store (SCOPE/Spark-style) where data is
// split into coarse partitions that are read all-or-nothing: the unit of I/O
// is a partition, and the engine keeps an account of how many partitions each
// query touched so experiments can report "fraction of data read".
//
// Columns are either numeric (float64; dates are stored as numeric day
// offsets) or categorical (dictionary-encoded strings). Partitions store
// columns contiguously, matching the columnar layouts the paper targets.
package table

import "fmt"

// Kind describes the storage class of a column.
type Kind uint8

const (
	// Numeric columns store float64 values (integers, floats, money).
	Numeric Kind = iota
	// Categorical columns store dictionary-encoded strings.
	Categorical
	// Date columns store day offsets as float64 but are semantically dates;
	// predicates may compare them like numerics.
	Date
)

func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	case Date:
		return "date"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Kind Kind
	// Positive reports that a numeric column never stores values <= 0, which
	// enables the log-transformed measures of Table 2 in the paper.
	Positive bool
}

// IsNumeric reports whether the column stores float64 values (Numeric or Date).
func (c Column) IsNumeric() bool { return c.Kind == Numeric || c.Kind == Date }

// Schema is an ordered list of columns.
type Schema struct {
	Cols  []Column
	index map[string]int
}

// NewSchema builds a schema and its name index. Column names must be unique.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Cols: cols, index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("table: column %d has empty name", i)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error; for use in tests and
// dataset generators with static schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.Cols) }

// ColIndex returns the index of the named column, or -1 if absent.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Col returns the column at index i.
func (s *Schema) Col(i int) Column { return s.Cols[i] }
