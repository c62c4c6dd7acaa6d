package lru

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// val is a cached value; size is what the byte-budgeted variant charges.
type val struct{ id, size int64 }
type cache = Cache[string, *val]

const unit = 100 // size of an ordinary val
var errBoom = errors.New("boom")

// eachVariant runs f under both budgeting modes; n slots hold n ordinary vals.
func eachVariant(t *testing.T, slots int64, f func(t *testing.T, c *cache)) {
	t.Run("count", func(t *testing.T) { f(t, New[string, *val](slots, nil)) })
	t.Run("bytes", func(t *testing.T) { f(t, New[string](slots*unit, func(v *val) int64 { return v.size })) })
}

// fresh computes an ordinary val.
func fresh() (*val, error) { return &val{size: unit}, nil }

// step is one lookup of a sequential script and the state it must leave.
type step struct {
	key       string
	units     int64 // size of the computed val in units; 0 makes compute fail
	hit       bool
	entries   int // resident after the step
	evictions int64
}

// TestSequentialContract walks caches through scripted lookups: a hit returns
// the identical value and does not allocate, an error is not cached, the least
// recently used entry is the one evicted, an oversize value is served and
// stays resident until the next admission, and budget 0 is unbounded.
func TestSequentialContract(t *testing.T) {
	for _, script := range []struct {
		name  string
		slots int64
		steps []step
	}{
		{"lru", 2, []step{
			{"a", 1, false, 1, 0},
			{"a", 1, true, 1, 0},
			{"bad", 0, false, 1, 0},
			{"bad", 0, false, 1, 0}, // not cached: computed again
			{"b", 1, false, 2, 0},
			{"a", 1, true, 2, 0}, // touch a: b is now coldest
			{"c", 1, false, 2, 1},
			{"a", 1, true, 2, 1},  // a survived: the touch counted
			{"b", 1, false, 2, 2}, // b was the one evicted
		}},
		{"oversize", 1, []step{
			{"big", 5, false, 1, 0}, // five times the byte budget, served anyway
			{"big", 5, true, 1, 0},
			{"next", 1, false, 1, 1}, // the next admission is what evicts it
			{"big", 5, false, 1, 2},
		}},
		{"unbounded", 0, []step{{"a", 9, false, 1, 0}, {"b", 9, false, 2, 0}, {"c", 9, false, 3, 0}, {"a", 9, true, 3, 0}}},
	} {
		t.Run(script.name, func(t *testing.T) {
			eachVariant(t, script.slots, func(t *testing.T, c *cache) {
				first := map[string]*val{}
				var hits int64
				for i, s := range script.steps {
					v, hit, err := c.GetOrCompute(s.key, func() (*val, error) {
						if s.units == 0 {
							return nil, errBoom
						}
						return &val{int64(i), s.units * unit}, nil
					})
					if hit != s.hit || (s.units == 0) != errors.Is(err, errBoom) || hit && v != first[s.key] {
						t.Fatalf("step %d (%s): hit=%v err=%v value %p, the miss computed %p", i, s.key, hit, err, v, first[s.key])
					}
					if first[s.key] = v; hit {
						hits++
					}
					if st := c.Stats(); st.Hits != hits || st.Misses != int64(i+1)-hits || st.Entries != s.entries || st.Evictions != s.evictions {
						t.Fatalf("step %d (%s): stats %+v, want %d hits / %d entries / %d evictions", i, s.key, st, hits, s.entries, s.evictions)
					}
				}
				// The last key is resident; the compute captures, as callers' do.
				last := script.steps[len(script.steps)-1]
				if n := testing.AllocsPerRun(100, func() { c.GetOrCompute(last.key, func() (*val, error) { return &val{hits, unit}, nil }) }); n != 0 {
					t.Fatalf("a hit allocates %v times, want 0", n)
				}
			})
		})
	}
}

// TestFlights parks eight lookups on a leader's flight, provably before its
// compute returns, and settles it four ways. A value is shared as hits; an
// error goes to every lookup and is not cached. A panic reaches the leader's
// caller only, and a flight overtaken by Invalidate (which also drops the
// completed "old") is not adopted: in both, the parked lookups retry — one
// computes, the rest hit — and theirs is the value that stays cached.
func TestFlights(t *testing.T) {
	const parked = 8
	for _, tc := range []struct {
		name   string
		settle func(c *cache) (*val, error) // the leader's compute
		err    error                        // what it returns
		panics any                          // what it dies of
		hits   int64                        // parked lookups that hit
		misses int64                        // computes in all: "old", the leader and, if the parked lookups retry, one of them
	}{
		{"value", func(*cache) (*val, error) { return fresh() }, nil, nil, parked, 2},
		{"error", func(*cache) (*val, error) { return nil, errBoom }, errBoom, nil, 0, 2},
		{"panic", func(*cache) (*val, error) { panic("loader bug") }, nil, "loader bug", parked - 1, 3},
		{"invalidated", func(c *cache) (*val, error) { c.Invalidate(); return fresh() }, nil, nil, parked - 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachVariant(t, 4, func(t *testing.T, c *cache) {
				c.GetOrCompute("old", fresh)
				type outcome struct {
					v        *val
					hit      bool
					err      error
					panicked any
				}
				out := make([]outcome, 1+parked) // out[0] is the leader's
				var wg sync.WaitGroup
				lookup := func(i int, compute func() (*val, error)) {
					defer wg.Done()
					defer func() { out[i].panicked = recover() }()
					out[i].v, out[i].hit, out[i].err = c.GetOrCompute("k", compute)
				}
				wg.Add(1 + parked)
				lookup(0, func() (*val, error) {
					for i := 1; i <= parked; i++ { // begun inside the flight, so all they can do is join it
						go lookup(i, func() (*val, error) { return &val{int64(i), unit}, nil }) // id: who computed it
					}
					for n := int64(0); n < parked; runtime.Gosched() {
						c.mu.Lock()
						n = c.entries["k"].waiters
						c.mu.Unlock()
					}
					return tc.settle(c)
				})
				wg.Wait()
				lead, want := out[0], out[0]
				if lead.hit || lead.err != tc.err || lead.panicked != tc.panics || (lead.v != nil) != (tc.err == nil && tc.panics == nil) {
					t.Fatalf("leader: %+v", lead)
				}
				if tc.misses == 3 {
					want = outcome{v: out[1].v}
				}
				for i, o := range out[1:] {
					wantHit := tc.err == nil && o.v != nil && o.v.id != int64(i+1) // a hit unless it is the one that computed
					if o.v != want.v || o.hit != wantHit || o.err != want.err || o.panicked != nil || tc.err == nil && o.v == nil {
						t.Fatalf("parked lookup %d: %+v, want the outcome %+v, hit=%v", i+1, o, want, wantHit)
					}
				}
				if st := c.Stats(); st.Hits != tc.hits || st.Misses != tc.misses {
					t.Fatalf("stats %+v, want %d hits / %d misses", st, tc.hits, tc.misses)
				}
				if v, hit, _ := c.GetOrCompute("k", fresh); hit != (tc.err == nil) || hit && v != want.v {
					t.Fatalf("later lookup: hit=%v value %+v, want the flight's outcome %+v cached unless it is an error", hit, v, want)
				}
				if _, hit, _ := c.GetOrCompute("old", fresh); hit != (c.Stats().Invalidations == 0) {
					t.Fatalf("completed entry: hit=%v after %d invalidations", hit, c.Stats().Invalidations)
				}
			})
		})
	}
}

// TestConcurrentChurn hammers every path at once (run under -race in CI).
func TestConcurrentChurn(t *testing.T) {
	eachVariant(t, 4, func(t *testing.T, c *cache) {
		var wg sync.WaitGroup
		for w := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 300 {
					id := int64(w+i) % 7
					v, _, err := c.GetOrCompute(string(rune('a'+id)), func() (*val, error) {
						if i%11 == 0 {
							return nil, errBoom
						}
						return &val{id, unit}, nil
					})
					if err == nil && v.id != id || err != nil && err != errBoom {
						t.Errorf("key %d: value %+v err %v", id, v, err)
						return
					}
					if w == 0 && i%50 == 0 {
						c.Invalidate()
					}
				}
			}()
		}
		wg.Wait()
		if st := c.Stats(); st.Entries > 4 || st.ResidentCost > st.Budget {
			t.Fatalf("cache outgrew its budget: %+v", st)
		}
	})
}
