package gbt

import (
	"math"
	"math/rand"
	"testing"
)

// trainTestModel fits a small ensemble on a learnable synthetic target.
func trainTestModel(t *testing.T) (*Model, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	n, dim := 300, 5
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		xs[i] = row
		ys[i] = 2*row[0] - row[2] + 0.1*rng.NormFloat64()
	}
	m, err := Train(xs, ys, Params{Trees: 20, Seed: 3, Subsample: 0.9, ColSample: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return m, xs
}

func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	m, xs := trainTestModel(t)
	back, err := FromSnapshot(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTrees() != m.NumTrees() {
		t.Fatalf("round trip: %d trees, want %d", back.NumTrees(), m.NumTrees())
	}
	if back.Dim() != m.Dim() {
		t.Fatalf("round trip: dim %d, want %d", back.Dim(), m.Dim())
	}
	for i, x := range xs {
		if got, want := back.Predict(x), m.Predict(x); got != want {
			t.Fatalf("row %d: restored model predicts %v, original %v", i, got, want)
		}
	}
	io, ib := m.Importance(), back.Importance()
	for j := range io {
		if io[j] != ib[j] {
			t.Fatalf("importance %d differs: %v vs %v", j, io[j], ib[j])
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	m, xs := trainTestModel(t)
	s := m.Snapshot()
	want := m.Predict(xs[0])
	// Mutating the snapshot must not reach back into the model.
	for i := range s.Trees[0].Nodes {
		s.Trees[0].Nodes[i].Value += 100
	}
	s.Importance[0] += 100
	if got := m.Predict(xs[0]); got != want {
		t.Fatalf("mutating a snapshot changed the source model: %v vs %v", got, want)
	}
}

func TestFromSnapshotRejectsCorruption(t *testing.T) {
	m, _ := trainTestModel(t)
	cases := []struct {
		name   string
		mutate func(*ModelSnapshot)
	}{
		{"zero dim", func(s *ModelSnapshot) { s.Dim = 0 }},
		{"importance length", func(s *ModelSnapshot) { s.Importance = s.Importance[:2] }},
		{"feature out of range", func(s *ModelSnapshot) {
			for i := range s.Trees[0].Nodes {
				if s.Trees[0].Nodes[i].Feature >= 0 {
					s.Trees[0].Nodes[i].Feature = s.Dim + 3
					return
				}
			}
			t.Skip("tree 0 has no split nodes")
		}},
		{"child cycle", func(s *ModelSnapshot) {
			for i := range s.Trees[0].Nodes {
				if s.Trees[0].Nodes[i].Feature >= 0 {
					s.Trees[0].Nodes[i].Left = i // self-loop would hang predict
					return
				}
			}
			t.Skip("tree 0 has no split nodes")
		}},
		{"child out of range", func(s *ModelSnapshot) {
			for i := range s.Trees[0].Nodes {
				if s.Trees[0].Nodes[i].Feature >= 0 {
					s.Trees[0].Nodes[i].Right = len(s.Trees[0].Nodes) + 5
					return
				}
			}
			t.Skip("tree 0 has no split nodes")
		}},
		{"empty tree", func(s *ModelSnapshot) { s.Trees[0].Nodes = nil }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := m.Snapshot()
			c.mutate(&s)
			if _, err := FromSnapshot(s); err == nil {
				t.Fatal("want error for corrupted snapshot")
			}
		})
	}
}

func TestFromSnapshotAcceptsMissingImportance(t *testing.T) {
	m, xs := trainTestModel(t)
	s := m.Snapshot()
	s.Importance = nil
	back, err := FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Predict(xs[0]), m.Predict(xs[0]); got != want {
		t.Fatalf("prediction differs without importance: %v vs %v", got, want)
	}
	if len(back.Importance()) != m.Dim() {
		t.Fatalf("restored importance has %d entries, want %d", len(back.Importance()), m.Dim())
	}
}

// nanThresholdSnapshot is three one-split trees on feature 0 with thresholds
// 5, NaN, 3 and leaves {1, 10}. Before FromSnapshot rejected it, the batch
// tables ordered the NaN entry first (NaN defeats the insertion sort's `<`),
// the early-exit scan stopped on it, and row x = 4 scored 3 through
// PredictBatch against 21 through PredictReference.
func nanThresholdSnapshot() ModelSnapshot {
	s := ModelSnapshot{Params: Params{LearningRate: 1}, Dim: 1}
	for _, th := range []float64{5, math.NaN(), 3} {
		s.Trees = append(s.Trees, TreeSnapshot{Nodes: []NodeSnapshot{
			{Feature: 0, Thresh: th, Left: 1, Right: 2},
			{Feature: -1, Value: 1},
			{Feature: -1, Value: 10},
		}})
	}
	return s
}

func TestFromSnapshotRejectsNaNThreshold(t *testing.T) {
	if _, err := FromSnapshot(nanThresholdSnapshot()); err == nil {
		t.Fatal("FromSnapshot accepted a NaN split threshold")
	}
	// A NaN in a leaf's unused threshold field is not a condition, and ±Inf
	// thresholds are ordinary floats: both load, and agree across evaluators.
	s := nanThresholdSnapshot()
	s.Trees[1].Nodes[0].Thresh = math.Inf(1)
	s.Trees[2].Nodes[0].Thresh = math.Inf(-1)
	s.Trees[0].Nodes[1].Thresh = math.NaN()
	m, err := FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{4, 6, math.Inf(1), math.Inf(-1), math.NaN()} {
		got := make([]float64, 1)
		m.PredictBatch(got, [][]float64{{x}})
		if want := m.PredictReference([]float64{x}); math.Float64bits(got[0]) != math.Float64bits(want) {
			t.Fatalf("x = %v: PredictBatch %v, PredictReference %v", x, got[0], want)
		}
	}
}
