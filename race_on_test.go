//go:build race

package conprobe_test

// raceEnabled: allocation gates count heap objects, which the race
// detector's instrumentation is free to add to.
const raceEnabled = true
