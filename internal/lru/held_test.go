package lru

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// hval is a cached value that counts its holders the way a store partition
// does: compute hands it out with one, the cache's hooks and the lookups'
// own releases move the count, and reaching zero reclaims it for good.
type hval struct {
	key      string
	holders  atomic.Int32
	dead     atomic.Bool  // the count reached zero: what it was made of is gone
	retained atomic.Int32 // holders the cache's retain hook added
	dropped  atomic.Int32 // calls of the cache's release hook
}

func (v *hval) drop(t *testing.T) {
	switch n := v.holders.Add(-1); {
	case n < 0:
		t.Errorf("%s: released more often than retained", v.key)
	case n == 0:
		v.dead.Store(true)
	}
}

// heldCache is a cache of hvals under the holder hooks, and every hval its
// computes ever made.
type heldCache struct {
	*Cache[string, *hval]
	t   *testing.T
	mu  sync.Mutex
	all []*hval
}

func newHeldCache(t *testing.T, slots int64) *heldCache {
	h := &heldCache{t: t}
	h.Cache = NewHeld[string](slots, nil,
		func(v *hval, n int) { v.retained.Add(int32(n)); v.holders.Add(int32(n)) },
		func(v *hval) { v.dropped.Add(1); v.drop(t) })
	return h
}

// fresh computes a value for key, held once by the lookup that computes it.
func (h *heldCache) fresh(key string) *hval {
	v := &hval{key: key}
	v.holders.Store(1)
	h.mu.Lock()
	h.all = append(h.all, v)
	h.mu.Unlock()
	return v
}

// audit checks the books with no lookup in flight and none holding a value:
// a resident value is held once, by the cache, and was never dropped; any
// other is held by nobody and left the cache by exactly one release if it was
// ever admitted, by none if it was not.
func (h *heldCache) audit(when string) {
	h.t.Helper()
	resident := map[*hval]bool{}
	h.Cache.mu.Lock()
	for e := h.root.next; e != &h.root; e = e.next {
		resident[e.val] = true
	}
	inFlight := len(h.entries) - len(resident)
	h.Cache.mu.Unlock()
	if inFlight != 0 {
		h.t.Fatalf("%s: %d entries in flight at a quiescent point", when, inFlight)
	}
	for _, v := range h.all {
		holders, dropped, admitted := v.holders.Load(), v.dropped.Load(), v.retained.Load() > 0
		switch {
		case resident[v] && (holders != 1 || dropped != 0 || v.dead.Load()):
			h.t.Fatalf("%s: resident %s has %d holders, %d drops, dead=%v; want the cache's one hold", when, v.key, holders, dropped, v.dead.Load())
		case !resident[v] && (holders != 0 || dropped != b2i(admitted)):
			h.t.Fatalf("%s: departed %s (admitted=%v) has %d holders and %d drops", when, v.key, admitted, holders, dropped)
		}
	}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// TestHeldFlights settles a flight with eight parked lookups the four ways
// TestFlights does and reads the holder counts before anyone lets go: a
// shared value is held by its leader, the cache and every waiter; a leader
// whose flight Invalidate overtook holds a value the cache never counted,
// alone, and it is intact; the parked lookups of a lost flight end up holding
// the retry's value once each, with nothing left on the abandoned one.
func TestHeldFlights(t *testing.T) {
	const parked = 8
	for _, tc := range []struct {
		name    string
		settle  func(h *heldCache) (*hval, error)
		leaders int32 // holders of the leader's value when everyone has returned
		retried int32 // holders of the parked lookups' own value, if they retried
	}{
		{"value", func(h *heldCache) (*hval, error) { return h.fresh("k"), nil }, 1 + 1 + parked, 0},
		{"error", func(*heldCache) (*hval, error) { return nil, errBoom }, 0, 0},
		{"panic", func(*heldCache) (*hval, error) { panic("loader bug") }, 0, 1 + parked},
		{"invalidated", func(h *heldCache) (*hval, error) { h.Invalidate(); return h.fresh("k"), nil }, 1, 1 + parked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHeldCache(t, 4)
			old, _, _ := h.GetOrCompute("old", func() (*hval, error) { return h.fresh("old"), nil })
			got := make([]*hval, 1+parked)
			var wg sync.WaitGroup
			lookup := func(i int, compute func() (*hval, error)) {
				defer wg.Done()
				defer func() { recover() }()
				got[i], _, _ = h.GetOrCompute("k", compute)
			}
			wg.Add(1 + parked)
			lookup(0, func() (*hval, error) {
				for i := 1; i <= parked; i++ {
					go lookup(i, func() (*hval, error) { return h.fresh("k"), nil })
				}
				for n := int64(0); n < parked; runtime.Gosched() {
					h.Cache.mu.Lock()
					n = h.entries["k"].waiters
					h.Cache.mu.Unlock()
				}
				return tc.settle(h)
			})
			wg.Wait()

			if lead := got[0]; (lead != nil) != (tc.leaders > 0) {
				t.Fatalf("leader got %+v, want a value: %v", lead, tc.leaders > 0)
			} else if lead != nil && (lead.holders.Load() != tc.leaders || lead.dead.Load()) {
				t.Fatalf("leader's value has %d holders (dead=%v), want %d", lead.holders.Load(), lead.dead.Load(), tc.leaders)
			}
			if tc.name == "invalidated" {
				if lead := got[0]; lead.retained.Load() != 0 || lead.dropped.Load() != 0 {
					t.Fatalf("the cache touched a value it never admitted: %d retained, %d dropped", lead.retained.Load(), lead.dropped.Load())
				}
				// "old" was resident when Invalidate ran: dropped once, and
				// still whole, because the lookup that computed it holds it.
				if old.dropped.Load() != 1 || old.holders.Load() != 1 || old.dead.Load() {
					t.Fatalf("invalidated resident value: %d drops, %d holders, dead=%v", old.dropped.Load(), old.holders.Load(), old.dead.Load())
				}
			}
			for i, v := range got[1:] {
				want := got[0]
				if tc.retried > 0 {
					want = got[1]
				}
				if v != want {
					t.Fatalf("parked lookup %d holds %p, want %p", i+1, v, want)
				}
				if tc.retried > 0 && (v.holders.Load() != tc.retried || v == got[0]) {
					t.Fatalf("retried value has %d holders, want %d, and must not be the lost flight's", v.holders.Load(), tc.retried)
				}
			}
			old.drop(t)
			for _, v := range got {
				if v != nil {
					v.drop(t)
				}
			}
			h.audit("after every lookup let go")
		})
	}
}

// TestHolderAccounting runs eight goroutines over six keys and three slots —
// hits, misses, joined flights, evictions, computes that fail or panic,
// Invalidate from outside and from inside a flight — each from its own seeded
// stream. A value in a lookup's hands must never be reclaimed, and whenever
// everything has been handed back the books must balance (audit).
func TestHolderAccounting(t *testing.T) {
	const workers, rounds, steps = 8, 20, 200
	h := newHeldCache(t, 3)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*workers + w)))
				for i := 0; i < steps; i++ {
					key := string(rune('a' + rng.Intn(6)))
					fate := rng.Intn(40)
					if fate == 0 {
						h.Invalidate()
					}
					func() {
						defer func() {
							if r := recover(); r != nil && r != "loader bug" {
								panic(r)
							}
						}()
						v, _, err := h.GetOrCompute(key, func() (*hval, error) {
							switch fate {
							case 1:
								return nil, errBoom
							case 2:
								panic("loader bug")
							case 3:
								h.Invalidate()
							}
							runtime.Gosched() // let lookups join the flight
							return h.fresh(key), nil
						})
						if err != nil {
							return
						}
						for hold := rng.Intn(3); hold >= 0; hold-- {
							if v.dead.Load() || v.key != key {
								t.Errorf("lookup of %s holds %s, reclaimed=%v", key, v.key, v.dead.Load())
							}
							runtime.Gosched()
						}
						v.drop(t)
					}()
				}
			}()
		}
		wg.Wait()
		h.audit("between rounds")
		if t.Failed() {
			return
		}
	}
	h.Invalidate()
	h.audit("after the last Invalidate")
	if st := h.Stats(); st.Evictions == 0 || st.Hits == 0 || st.Invalidations == 0 {
		t.Fatalf("the interleaving missed a path: %+v", st)
	}
}
