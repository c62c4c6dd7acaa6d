package gbt

import (
	"fmt"
	"math"
)

// This file provides snapshot/restore support for trained ensembles so the
// picker's funnel regressors can be persisted with the rest of a trained
// system (the deployment model of §2.3.1: train once offline, serve from the
// stored artifact). Snapshots are plain exported structs suitable for
// encoding/gob; FromSnapshot validates the wire data so a corrupted snapshot
// fails with an error instead of sending predict into a panic or an
// infinite node walk.

// NodeSnapshot is the wire form of one tree node; leaves have Feature == -1.
type NodeSnapshot struct {
	Feature int
	Thresh  float64
	Left    int
	Right   int
	Value   float64
}

// TreeSnapshot is the wire form of one regression tree.
type TreeSnapshot struct {
	Nodes []NodeSnapshot
}

// ModelSnapshot is the wire form of a trained Model. Tree structure and
// float64 leaf weights round-trip exactly, so a restored model predicts
// bit-identically to the original.
type ModelSnapshot struct {
	Params     Params
	Base       float64
	Trees      []TreeSnapshot
	Importance []float64
	Dim        int
}

// Snapshot captures the trained ensemble.
func (m *Model) Snapshot() ModelSnapshot {
	s := ModelSnapshot{
		Params:     m.params,
		Base:       m.base,
		Importance: append([]float64(nil), m.importance...),
		Dim:        m.dim,
	}
	for _, t := range m.trees {
		ts := TreeSnapshot{Nodes: make([]NodeSnapshot, len(t.nodes))}
		for i, n := range t.nodes {
			ts.Nodes[i] = NodeSnapshot{Feature: n.feature, Thresh: n.thresh, Left: n.left, Right: n.right, Value: n.value}
		}
		s.Trees = append(s.Trees, ts)
	}
	return s
}

// FromSnapshot reconstructs a trained model, validating the tree topology:
// split features must lie inside the feature dimension and child links must
// point strictly forward (grow builds trees in preorder, so parents always
// precede children), which guarantees predict terminates. A NaN split
// threshold is rejected: the batch tables order a feature's conditions by
// threshold and stop scanning at the first one that holds, which NaN (ordered
// against nothing) would break silently. ±Inf thresholds are ordinary floats
// and stay legal.
func FromSnapshot(s ModelSnapshot) (*Model, error) {
	if s.Dim <= 0 {
		return nil, fmt.Errorf("gbt: snapshot has non-positive feature dimension %d", s.Dim)
	}
	if len(s.Importance) != 0 && len(s.Importance) != s.Dim {
		return nil, fmt.Errorf("gbt: snapshot importance has %d entries for dimension %d", len(s.Importance), s.Dim)
	}
	m := &Model{
		params:     s.Params,
		base:       s.Base,
		importance: append([]float64(nil), s.Importance...),
		dim:        s.Dim,
	}
	if m.importance == nil {
		m.importance = make([]float64, s.Dim)
	}
	for ti, ts := range s.Trees {
		if len(ts.Nodes) == 0 {
			return nil, fmt.Errorf("gbt: snapshot tree %d has no nodes", ti)
		}
		t := &tree{nodes: make([]node, len(ts.Nodes))}
		for i, ns := range ts.Nodes {
			if ns.Feature >= 0 {
				if ns.Feature >= s.Dim {
					return nil, fmt.Errorf("gbt: snapshot tree %d node %d splits on feature %d, dimension is %d",
						ti, i, ns.Feature, s.Dim)
				}
				if ns.Left <= i || ns.Left >= len(ts.Nodes) || ns.Right <= i || ns.Right >= len(ts.Nodes) {
					return nil, fmt.Errorf("gbt: snapshot tree %d node %d has invalid children %d/%d (must be in (%d, %d))",
						ti, i, ns.Left, ns.Right, i, len(ts.Nodes))
				}
				if math.IsNaN(ns.Thresh) {
					return nil, fmt.Errorf("gbt: snapshot tree %d node %d splits on a NaN threshold", ti, i)
				}
			}
			t.nodes[i] = node{feature: ns.Feature, thresh: ns.Thresh, left: ns.Left, right: ns.Right, value: ns.Value}
		}
		m.trees = append(m.trees, t)
	}
	m.compile()
	return m, nil
}
