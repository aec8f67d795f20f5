//go:build race

package wppfile_test

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of what is put back, so allocation counts of
// pooled paths are random there.
const raceEnabled = true
