//go:build race

package vtime

// raceEnabled: allocation gates count heap objects, which the race
// detector's instrumentation is free to add to.
const raceEnabled = true
