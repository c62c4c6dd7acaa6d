package main

import "testing"

// TestParseBudget: -budget takes a fraction of the partitions in (0, 1] and
// nothing else, so a run never prints an answer for a budget it did not
// read at.
func TestParseBudget(t *testing.T) {
	for _, s := range []string{"0.05", "1", "1e-3"} {
		if _, err := parseBudget(s); err != nil {
			t.Errorf("parseBudget(%q): %v", s, err)
		}
	}
	for _, s := range []string{"NaN", "+Inf", "-Inf", "0", "-0", "-0.1", "1.5", "2", "five"} {
		if b, err := parseBudget(s); err == nil {
			t.Errorf("parseBudget(%q) = %v, want an error", s, b)
		}
	}
}
