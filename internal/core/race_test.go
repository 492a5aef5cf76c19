//go:build race

package core_test

// raceEnabled: the race detector's instrumentation changes escape
// analysis, so allocation ratchets do not hold under -race.
const raceEnabled = true
