// Package table mirrors the protected Partition shape for the decodebypass
// fixtures: Num/Cat stay nil for encoded columns, so every read must go
// through the accessors or the validated constructor.
package table

// Partition mirrors the lazy-decode seam of the real table.Partition.
type Partition struct {
	Num [][]float64
	Cat [][]uint32
}

// NumCol is whitelisted: the accessor itself may touch the raw field.
func (p *Partition) NumCol(c int) []float64 { return p.Num[c] }

// CatCol is deliberately NOT whitelisted in the fixture config, so its raw
// read is flagged like any other bypass.
func (p *Partition) CatCol(c int) []uint32 {
	return p.Cat[c] // want `direct access to table.Partition.Cat`
}

// MakePartition is the whitelisted constructor: its composite literal and
// field writes are the sanctioned way to build a Partition.
func MakePartition(num [][]float64, cat [][]uint32) *Partition {
	return &Partition{Num: num, Cat: cat}
}

// RawLit builds a Partition literal outside the constructor.
func RawLit(num [][]float64) *Partition {
	return &Partition{Num: num} // want `composite literal sets table.Partition.Num`
}

// EncodedCol mirrors the shared-buffer slices of the real table.EncodedCol:
// views into one block buffer, written only here.
type EncodedCol struct {
	Packed  []byte
	RunVals []uint32
	RunEnds []int32
	Rows    int
}

// NewCol is inside the defining package: building the view is its job.
func NewCol(buf []byte) *EncodedCol {
	e := &EncodedCol{}
	e.Packed = buf[:len(buf):len(buf)]
	e.RunEnds = append(e.RunEnds, 1)
	return e
}
