// Package scan mirrors the consumers of counted partitions: one sanctioned
// scan loop, one constructor that wires the cache hooks, and everything that
// must not release.
package scan

import "table"

type Compiled struct{}

type source interface {
	Read(i int) (*table.Partition, error)
}

func eval(p *table.Partition) int { return p.Rows() }

// Estimate is the sanctioned scan loop: it may release, inside its worker
// closure too, as long as nothing reads the partition afterwards.
func (c *Compiled) Estimate(src source, parts []int) int {
	total := 0
	each := func(i int) {
		p, err := src.Read(i)
		if err != nil {
			return
		}
		total += eval(p)
		p.Release()
	}
	for _, i := range parts {
		each(i)
	}
	return total
}

// newReader is the sanctioned wiring site: the hooks are mentioned, as
// method expressions, and never called here.
func newReader() (retain func(*table.Partition, int), release func(*table.Partition)) {
	return (*table.Partition).Retain, (*table.Partition).Release
}

// sample reads a partition outside the scan loop: it has no business
// releasing it.
func sample(src source) int {
	p, err := src.Read(0)
	if err != nil {
		return 0
	}
	n := eval(p)
	p.Release() // want `table.Partition.Release outside the sanctioned release sites`
	return n
}

// hook smuggles the method out as a value.
func hook(p *table.Partition) func() {
	return p.Release // want `table.Partition.Release outside the sanctioned release sites`
}

// cleanup defers the release: still a release site.
func cleanup(src source) int {
	p, _ := src.Read(0)
	defer p.Release() // want `table.Partition.Release outside the sanctioned release sites`
	return eval(p)
}

// lease releases something else that happens to share the method name.
func lease(l *table.Lease) {
	l.Release()
}

// early is an unsanctioned site that also reads after letting go: both are
// findings.
func (c *Compiled) early(src source) int {
	p, _ := src.Read(0)
	p.Release()    // want `table.Partition.Release outside the sanctioned release sites`
	return eval(p) // want `p is used after its Release`
}

// EstimateStale is a sanctioned site, so its Release stands, but the read
// after it does not; once p is rebound to the next partition it is usable
// again.
func (c *Compiled) EstimateStale(src source) int {
	p, _ := src.Read(0)
	n := eval(p)
	p.Release()
	n += p.Rows() // want `p is used after its Release`
	p, _ = src.Read(1)
	return n + eval(p)
}

// EstimateDeferred is sanctioned too: a deferred Release runs at return, so
// the reads after the defer statement are before the release.
func (c *Compiled) EstimateDeferred(src source) int {
	p, _ := src.Read(0)
	defer p.Release()
	return eval(p)
}

// justified releases deliberately, with the reason attached.
func justified(src source) {
	p, _ := src.Read(0)
	p.Release() //lint:releasesite-ok fixture: a one-shot tool that owns the only hold on what it just read
}
