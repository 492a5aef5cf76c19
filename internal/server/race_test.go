//go:build race

package server

// raceEnabled: the race detector's instrumentation changes escape
// analysis, so allocation ratchets do not hold under -race.
const raceEnabled = true
