package picker

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"ps3/internal/exec"
	"ps3/internal/query"
	"ps3/internal/stats"
)

// pickAll runs one deterministic pick per example at a few budgets and
// returns the selections, for equivalence comparisons.
func pickAll(p *Picker, exs []Example, budgets []int, seed int64) [][]query.WeightedPartition {
	var out [][]query.WeightedPartition
	for qi, ex := range exs {
		for _, n := range budgets {
			rng := rand.New(rand.NewSource(seed + int64(qi)))
			out = append(out, p.PickBatch(ex.Query, n, rng, exec.Options{Parallelism: 1}))
		}
	}
	return out
}

func sameSelections(t *testing.T, a, b [][]query.WeightedPartition) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("selection counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("pick %d: %d vs %d partitions selected", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("pick %d entry %d differs: %+v vs %+v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestPickerRoundTripBitIdenticalPicks(t *testing.T) {
	env := newTestEnv(t, 14, 20, Config{K: 2, Seed: 5, FeatureSelection: true, FeatureSelRestarts: 2})
	var buf bytes.Buffer
	n, err := env.p.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadPicker(&buf, env.ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Regs) != len(env.p.Regs) {
		t.Fatalf("round trip: %d funnel stages, want %d", len(back.Regs), len(env.p.Regs))
	}
	if len(back.Excluded) != len(env.p.Excluded) {
		t.Fatalf("round trip: %d excluded kinds, want %d", len(back.Excluded), len(env.p.Excluded))
	}
	for k := range env.p.Excluded {
		if env.p.Excluded[k] != back.Excluded[k] {
			t.Fatalf("excluded kind %v lost in round trip", k)
		}
	}
	budgets := []int{2, 5, 9}
	sameSelections(t, pickAll(env.p, env.exs[:8], budgets, 41), pickAll(back, env.exs[:8], budgets, 41))
}

func TestReadPickerRejectsWrongStore(t *testing.T) {
	env := newTestEnv(t, 10, 20, Config{K: 2, Seed: 6})
	var buf bytes.Buffer
	if _, err := env.p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// An empty store has no feature space at all.
	if _, err := ReadPicker(bytes.NewReader(buf.Bytes()), &stats.TableStats{}); err == nil {
		t.Fatal("want error restoring against an empty store")
	}
	env2 := newTestEnv(t, 10, 20, Config{K: 2, Seed: 6})
	// Same schema → same dimension → accepted.
	if _, err := ReadPicker(bytes.NewReader(buf.Bytes()), env2.ts); err != nil {
		t.Fatalf("rebinding to an equal-dimension store should work: %v", err)
	}
}

func TestReadPickerRejectsGarbage(t *testing.T) {
	env := newTestEnv(t, 8, 15, Config{K: 1, Seed: 7})
	if _, err := ReadPicker(bytes.NewReader([]byte("junk")), env.ts); err == nil {
		t.Fatal("want error decoding garbage")
	}
}

// corruptConfigs are the snapshot configs a pick cannot run under, one per
// rejected field value: a negative or NaN outlier share sliced the outlier
// list out of range, a NaN α never returned from the budget allocation.
var corruptConfigs = []struct {
	name   string
	mutate func(*Config)
}{
	{"outlier budget -1", func(c *Config) { c.OutlierBudgetFrac = -1 }},
	{"outlier budget NaN", func(c *Config) { c.OutlierBudgetFrac = math.NaN() }},
	{"outlier budget 1.5", func(c *Config) { c.OutlierBudgetFrac = 1.5 }},
	{"alpha NaN", func(c *Config) { c.Alpha = math.NaN() }},
	{"alpha +Inf", func(c *Config) { c.Alpha = math.Inf(1) }},
	{"alpha 0", func(c *Config) { c.Alpha = 0 }},
	{"alpha -2", func(c *Config) { c.Alpha = -2 }},
	{"outlier rel size NaN", func(c *Config) { c.OutlierRelSize = math.NaN() }},
	{"top frac NaN", func(c *Config) { c.TopFrac = math.NaN() }},
	{"algo 3", func(c *Config) { c.Algo = AlgoHACSingle + 1 }},
}

// snapshotWith returns p's snapshot with its config mutated.
func snapshotWith(t testing.TB, p *Picker, mutate func(*Config)) []byte {
	t.Helper()
	bad := *p
	mutate(&bad.Cfg)
	var buf bytes.Buffer
	if _, err := bad.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadPickerRejectsCorruptConfig(t *testing.T) {
	env := newTestEnv(t, 10, 15, Config{K: 2, Seed: 7})
	if _, err := ReadPicker(bytes.NewReader(snapshotWith(t, env.p, func(*Config) {})), env.ts); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for _, tc := range corruptConfigs {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadPicker(bytes.NewReader(snapshotWith(t, env.p, tc.mutate)), env.ts); err == nil {
				t.Fatal("ReadPicker accepted a config a pick cannot run under")
			}
		})
	}
}

// TestTrainWritesOnlyReadableSnapshots walks the corrupt configs through
// Train: each must be refused, or (where the defaults replace the value)
// trained into a picker whose snapshot ReadPicker reads back. A trained
// system must never write a snapshot its own reader refuses.
func TestTrainWritesOnlyReadableSnapshots(t *testing.T) {
	env := newTestEnv(t, 10, 15, Config{K: 2, Seed: 7})
	for _, tc := range corruptConfigs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{K: 2, Seed: 7}
			tc.mutate(&cfg)
			p, err := Train(env.ts, env.exs, cfg, exec.Options{})
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if _, err := p.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadPicker(&buf, env.ts); err != nil {
				t.Fatalf("Train accepted the config, ReadPicker refuses its snapshot: %v", err)
			}
		})
	}
}

// FuzzReadPicker: ReadPicker decodes the one untrusted file a server loads
// besides the statistics and the table. Whatever it accepts must pick —
// two queries at two budgets — without panicking or hanging.
func FuzzReadPicker(f *testing.F) {
	env := newTestEnv(f, 10, 15, Config{K: 2, Seed: 7})
	valid := snapshotWith(f, env.p, func(*Config) {})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	for _, tc := range corruptConfigs {
		f.Add(snapshotWith(f, env.p, tc.mutate))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPicker(bytes.NewReader(data), env.ts)
		if err != nil {
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, ex := range env.exs[:2] {
				for _, n := range []int{3, 7} {
					p.PickBatch(ex.Query, n, rand.New(rand.NewSource(1)), exec.Options{Parallelism: 1})
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("PickBatch on an accepted snapshot did not return")
		}
	})
}

func TestLSSRoundTripBitIdenticalPicks(t *testing.T) {
	env := newTestEnv(t, 12, 20, Config{Seed: 8})
	l, err := TrainLSS(env.ts, env.exs, []float64{0.1, 0.3}, 17)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLSS(&buf, env.ts)
	if err != nil {
		t.Fatal(err)
	}
	if back.DefaultStrataSize != l.DefaultStrataSize || back.Seed != l.Seed {
		t.Fatalf("round trip changed config: %+v vs %+v", back, l)
	}
	if len(back.StrataSize) != len(l.StrataSize) {
		t.Fatalf("round trip: %d strata entries, want %d", len(back.StrataSize), len(l.StrataSize))
	}
	for _, ex := range env.exs[:5] {
		for _, frac := range []float64{0.1, 0.3, 0.5} {
			n := int(frac*float64(len(ex.Features)) + 0.5)
			a := l.PickN(ex.Features, n, rand.New(rand.NewSource(3)))
			b := back.PickN(ex.Features, n, rand.New(rand.NewSource(3)))
			if len(a) != len(b) {
				t.Fatalf("lss pick lengths differ: %d vs %d", len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("lss pick entry %d differs: %+v vs %+v", j, a[j], b[j])
				}
			}
		}
	}
}
