// Package sketch implements the lightweight, one-pass, mergeable data
// sketches PS3 maintains per partition per column (paper §3.1, Table 1):
//
//   - Measures: min/max and first/second moments, plus the same over
//     log-transformed values for positive columns.
//   - Histogram: equal-depth histograms (10 buckets by default).
//   - AKMV: a K-Minimum-Values distinct-value sketch that also tracks the
//     multiplicity of each retained hash (k=128 by default).
//   - HeavyHitter: lossy counting with 1% support (≤100 tracked items).
//   - ExactDict: exact value→frequency map for low-cardinality string
//     columns, enabling precise equality/IN selectivity.
//
// Every sketch is built incrementally in one pass at ingest time, can be
// merged across partitions, and reports its serialized storage footprint so
// experiments can reproduce the paper's Table 4.
package sketch

import "math"

// Measures tracks min, max, count and the first two moments of a numeric
// column, and optionally the same statistics over log(x) when the column is
// strictly positive (paper Table 2).
type Measures struct {
	Count  int64
	Min    float64
	Max    float64
	Sum    float64
	SumSq  float64
	HasLog bool
	LogMin float64
	LogMax float64
	LogSum float64
	LogSSq float64
}

// NewMeasures returns an empty Measures sketch. If positive is true the
// sketch also maintains log-transformed moments.
func NewMeasures(positive bool) *Measures {
	return &Measures{
		Min: math.Inf(1), Max: math.Inf(-1),
		HasLog: positive,
		LogMin: math.Inf(1), LogMax: math.Inf(-1),
	}
}

// Add observes one value.
func (m *Measures) Add(x float64) {
	m.Count++
	if x < m.Min {
		m.Min = x
	}
	if x > m.Max {
		m.Max = x
	}
	m.Sum += x
	m.SumSq += x * x
	if m.HasLog {
		if x <= 0 {
			// The column claimed positivity but isn't; disable log stats
			// rather than producing -Inf moments.
			m.HasLog = false
			return
		}
		l := math.Log(x)
		if l < m.LogMin {
			m.LogMin = l
		}
		if l > m.LogMax {
			m.LogMax = l
		}
		m.LogSum += l
		m.LogSSq += l * l
	}
}

// Mean returns the average value, or 0 for an empty sketch.
func (m *Measures) Mean() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// MeanSq returns the average of x^2 (the raw second moment x̄² of Table 2).
func (m *Measures) MeanSq() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.SumSq / float64(m.Count)
}

// Std returns the population standard deviation.
func (m *Measures) Std() float64 {
	if m.Count == 0 {
		return 0
	}
	v := m.MeanSq() - m.Mean()*m.Mean()
	if v < 0 {
		v = 0 // guard tiny negative values from float cancellation
	}
	return math.Sqrt(v)
}

// LogMean returns the average of log(x), or 0 when log stats are disabled.
func (m *Measures) LogMean() float64 {
	if !m.HasLog || m.Count == 0 {
		return 0
	}
	return m.LogSum / float64(m.Count)
}

// LogMeanSq returns the average of log(x)^2, or 0 when log stats are
// disabled.
func (m *Measures) LogMeanSq() float64 {
	if !m.HasLog || m.Count == 0 {
		return 0
	}
	return m.LogSSq / float64(m.Count)
}

// SizeBytes returns the serialized footprint: ten float64/int64 words.
func (m *Measures) SizeBytes() int { return 10 * 8 }
