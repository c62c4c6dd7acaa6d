//go:build race

package query

// raceDetector reports a -race build, under which sync.Pool drops a quarter
// of what is put back and allocation counts stop being meaningful.
const raceDetector = true
