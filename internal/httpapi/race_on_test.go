//go:build race

package httpapi

// raceEnabled: allocation gates count heap objects, which the race
// detector's instrumentation is free to add to.
const raceEnabled = true
