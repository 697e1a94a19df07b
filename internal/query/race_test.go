//go:build race

package query

// raceEnabled reports a -race build, whose sync.Pool drops pooled items at
// random, so allocation counts of pooled paths vary run to run.
const raceEnabled = true
