//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so a pooled path cannot be held to zero allocations.
const raceEnabled = true
