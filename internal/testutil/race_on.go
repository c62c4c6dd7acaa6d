//go:build race

package testutil

// RaceDetector reports a -race build, under which sync.Pool drops a quarter
// of what is put back and allocation counts over pooled scratch stop being
// meaningful.
const RaceDetector = true
