//go:build !race

package query

const raceDetector = false
