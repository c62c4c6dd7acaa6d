// Package table mirrors the counted partition: Retain and Release move a
// holder count, and the last Release recycles what the partition views.
package table

type Partition struct {
	holders int
	rows    int
}

func (p *Partition) Rows() int { return p.rows }

func (p *Partition) Retain(n int) { p.holders += n }

// Release's own body is the one place in the defining package that touches
// the count; it mentions no Release and so needs no allowance.
func (p *Partition) Release() { p.holders-- }

// Other types may have a Release of their own.
type Lease struct{}

func (l *Lease) Release() {}
