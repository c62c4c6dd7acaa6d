package picker

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ps3/internal/exec"
	"ps3/internal/gbt"
)

// TestBatchedPickReadsOnlySelectivitySlots drives the batched pick over rows
// that *are* four floats long — each its own allocation, so a read of any
// other slot panics rather than landing in a neighbour — and checks the
// selection against the reference over full rows. The candidate filter, the
// funnel and cluster preparation may read the selectivity estimates from a
// row and nothing else.
func TestBatchedPickReadsOnlySelectivitySlots(t *testing.T) {
	env := newBenchEnv(t, 48, 30)
	p := env.p
	total, m := len(p.TS.Parts), p.TS.Space.Dim()
	for qi, ex := range env.exs {
		plan := p.TS.NewFeaturePlan(ex.Query)
		rows := make([][]float64, total)
		for i := range rows {
			rows[i] = make([]float64, selWidth)
			plan.FillSel(rows[i], i)
		}
		for _, n := range []int{2, 5, 12} {
			sc := getPickScratch(total, m)
			sc.setMasks(p, plan)
			var st PickStats
			got := p.pick(ex.Query, rows, n, rand.New(rand.NewSource(int64(qi*10+n))), &st, evalBatch, sc, exec.Options{Parallelism: 1})
			putPickScratch(sc)
			ref := p.PickReference(ex.Query, ex.Features, n, rand.New(rand.NewSource(int64(qi*10+n))))
			if !selectionsEqual(ref, got) {
				t.Fatalf("query %d budget %d: batched pick over 4-wide rows diverges from the reference", qi, n)
			}
		}
	}
}

// funnelColumns counts, independently of the fold tables, the table columns
// a funnel stage has a split condition on: the distinct Meta.Col of the
// features its trees split on, selectivity slots aside.
func funnelColumns(p *Picker, reg *gbt.Model) int {
	cols := map[int]bool{}
	for _, tr := range reg.Snapshot().Trees {
		for _, n := range tr.Nodes {
			if n.Feature >= 0 && p.TS.Space.Meta[n.Feature].Col >= 0 {
				cols[p.TS.Space.Meta[n.Feature].Col] = true
			}
		}
	}
	return len(cols)
}

// TestFunnelTableBytes pins the stated memory formula: nothing before the
// first batched pick, then partitions × condition-bearing columns × trees ×
// 2 bytes per stage — and lesion copies over the same store share the one
// set of tables.
func TestFunnelTableBytes(t *testing.T) {
	env := newBenchEnv(t, 48, 30)
	p := env.p
	if got := p.TableBytes(); got != 0 {
		t.Fatalf("TableBytes before any batched pick = %d, want 0", got)
	}
	lesion := *p
	lesion.Cfg.DisableCluster = true
	lesion.PickBatch(env.exs[0].Query, 5, rand.New(rand.NewSource(1)), exec.Options{Parallelism: 1})
	var want int64
	for _, reg := range p.Regs {
		want += int64(len(p.TS.Parts) * funnelColumns(p, reg) * reg.NumTrees() * 2)
	}
	if want == 0 {
		t.Fatal("fixture funnel has no condition on any column; the formula is not exercised")
	}
	if got := p.TableBytes(); got != want {
		t.Fatalf("TableBytes = %d, want partitions × condition-bearing columns × trees × 2 summed over stages = %d", got, want)
	}
	if got := lesion.TableBytes(); got != want {
		t.Fatalf("lesion copy reports %d table bytes, want the shared %d", got, want)
	}
}

// oversizeModel repeats reg's trees beyond the fold tables' bound of 128.
func oversizeModel(t *testing.T, reg *gbt.Model) *gbt.Model {
	t.Helper()
	snap := reg.Snapshot()
	trees := snap.Trees
	for len(snap.Trees) <= 128 {
		snap.Trees = append(snap.Trees, trees...)
	}
	snap.Trees = snap.Trees[:129]
	m, err := gbt.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPickBatchWithoutFoldTables covers every way a stage can lack a fold
// table — a 129-tree model (reachable through a foreign snapshot only), a
// picker assembled without a holder, and a picker whose TS field was
// repointed without Rebound. Each walks gathered full rows instead and must
// still match the reference bit for bit; none may hold table memory it
// cannot use.
func TestPickBatchWithoutFoldTables(t *testing.T) {
	env := newBenchEnv(t, 48, 30)
	big := *env.p
	big.Regs = nil
	for _, reg := range env.p.Regs {
		big.Regs = append(big.Regs, oversizeModel(t, reg))
	}
	big.tables = &funnelTables{}
	bare := *env.p
	bare.tables = nil
	// Same statistics under another pointer: a repointed TS the holder was
	// not built for (the first pick below builds it for env.p's).
	env.p.PickBatch(env.exs[0].Query, 5, rand.New(rand.NewSource(1)), exec.Options{Parallelism: 1})
	repointed := *env.p
	tsCopy, err := env.ts.ExtendedWith(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	repointed.TS = tsCopy

	for name, p := range map[string]*Picker{"129 trees": &big, "no holder": &bare, "repointed TS": &repointed} {
		for qi, ex := range env.exs {
			for _, n := range []int{3, 9} {
				ref := p.PickReference(ex.Query, ex.Features, n, rand.New(rand.NewSource(int64(qi*10+n))))
				for _, par := range []int{1, 3} {
					got := p.PickBatch(ex.Query, n, rand.New(rand.NewSource(int64(qi*10+n))), exec.Options{Parallelism: par})
					if !selectionsEqual(ref, got) {
						t.Fatalf("%s: query %d budget %d parallelism %d: PickBatch diverges from reference", name, qi, n, par)
					}
				}
			}
		}
	}
	if got := big.TableBytes(); got != 0 {
		t.Fatalf("a funnel of 129-tree models holds %d table bytes, want 0", got)
	}
	if got := bare.TableBytes(); got != 0 {
		t.Fatalf("a picker without a holder reports %d table bytes", got)
	}
}

// TestReadPickerRejectsNaNThreshold: a picker snapshot whose funnel holds a
// NaN split threshold must fail to load — the serving funnel's tables assume
// ordered thresholds, and the reference walk would disagree with them
// silently.
func TestReadPickerRejectsNaNThreshold(t *testing.T) {
	env := newTestEnv(t, 10, 20, Config{Seed: 3})
	wire := pickerWire{Version: pickerWireVersion, Cfg: env.p.Cfg, Thresholds: env.p.Thresholds}
	for _, reg := range env.p.Regs {
		wire.Regs = append(wire.Regs, reg.Snapshot())
	}
	poisoned := false
	for i, n := range wire.Regs[0].Trees[0].Nodes {
		if n.Feature >= 0 {
			wire.Regs[0].Trees[0].Nodes[i].Thresh = math.NaN()
			poisoned = true
			break
		}
	}
	if !poisoned {
		t.Fatal("first funnel tree has no split to poison")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wire); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPicker(&buf, env.ts); err == nil || !strings.Contains(err.Error(), "NaN threshold") {
		t.Fatalf("ReadPicker on a NaN split threshold: %v, want a NaN-threshold error", err)
	}
}
