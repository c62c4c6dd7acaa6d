// Package use consumes partitions through and around the lazy-decode seam.
package use

import "table"

// Sum reads through the accessor: clean.
func Sum(p *table.Partition) float64 {
	var s float64
	for _, v := range p.NumCol(0) {
		s += v
	}
	return s
}

// Raw bypasses the seam and sees nil where an encoded column has data.
func Raw(p *table.Partition) []float64 {
	return p.Num[0] // want `direct access to table.Partition.Num`
}

// Asserted pokes the representation deliberately, with the reason attached.
func Asserted(p *table.Partition) bool {
	return p.Num[0] == nil //lint:decodebypass-ok asserts the physical representation itself
}

// Code reads a view: clean, as is copying out of one and writing a copy.
func Code(e *table.EncodedCol, r int) byte {
	own := make([]byte, len(e.Packed))
	copy(own, e.Packed)
	own[0] = 1
	e.Rows = 3 // not a shared slice
	return e.Packed[r] + own[0] + byte(e.RunVals[0]) + byte(e.RunEnds[len(e.RunEnds)-1])
}

// Scribble writes through views in every way the check knows.
func Scribble(e *table.EncodedCol, src []byte) []byte {
	e.Packed[0] = 0                 // want `assignment through table.EncodedCol.Packed`
	e.Packed[1] |= 0x80             // want `assignment through table.EncodedCol.Packed`
	(e.Packed[2:])[0] = 0           // want `assignment through table.EncodedCol.Packed`
	e.RunVals[0]++                  // want `assignment through table.EncodedCol.RunVals`
	e.RunEnds = nil                 // want `assignment through table.EncodedCol.RunEnds`
	copy(e.Packed, src)             // want `copy into table.EncodedCol.Packed`
	copy(e.Packed[4:], src)         // want `copy into table.EncodedCol.Packed`
	clear(e.RunVals)                // want `clear into table.EncodedCol.RunVals`
	return append(e.Packed, src...) // want `append into table.EncodedCol.Packed`
}

// Patch repairs a pad byte in a buffer the test owns outright.
func Patch(e *table.EncodedCol) {
	e.Packed[len(e.Packed)-1] = 0 //lint:decodebypass-ok the fixture built this buffer and shares it with nothing
}
